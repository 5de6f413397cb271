package core

// This file is the read side of replication. Writes go to a key's whole
// replica chain (Peer.insertBatch walks replicaChain); a read needs only
// one copy, so the coordinator is free to choose WHICH — and the cheapest
// copy is the one it holds itself, the next cheapest one that shares an
// RPC with other keys of the same level.

// ReadPlan chooses, for the keys of one lattice level, which replica of
// each key is read first. chains[j] is key j's replica chain in failover
// order (replicaChain: the routed primary, then the remaining owners),
// keys in candidate order; self is the coordinating member's address.
// Each chain is reordered IN PLACE so that its chosen reader leads and
// the other replicas keep their relative order behind it:
//
//  1. a key self holds a copy of is read from self — on a daemon that is
//     an in-process store read, no RPC at all;
//  2. the remaining keys are covered greedily by the fewest other
//     members: repeatedly pick the member holding the most still-unread
//     keys. Ties go to the earlier chain position of the first unread
//     key (then of the next one), so absent any sharing a key is read
//     from its primary and read load keeps following key hashing instead
//     of piling onto one address.
//
// Every output chain is a permutation of its input — no replica is
// dropped — so the failover waves behind the chosen reader still reach
// every copy. With R = 1 there is nothing to choose, and with no
// coordinating member (self == "") nothing to place relative to: both
// are the identity. The plan is a pure function of (chains, self): no
// map iteration, no clock, no randomness, so every coordinator handed
// the same level computes the same plan.
func ReadPlan(chains [][]string, self string) {
	if self == "" {
		return
	}
	var buf [16]int   // a level rarely has more keys: keeps unread off the heap
	unread := buf[:0] // keys self holds no copy of, candidate order
	for j, chain := range chains {
		if p := indexOf(chain, self); p >= 0 {
			promote(chain, p)
		} else if len(chain) > 0 {
			unread = append(unread, j)
		}
	}
	for len(unread) > 0 {
		best, bestN := "", 0
	scan:
		for _, j := range unread {
			for _, addr := range chains[j] {
				n := 0
				for _, i := range unread {
					if indexOf(chains[i], addr) >= 0 {
						n++
					}
				}
				if n > bestN {
					best, bestN = addr, n
					if n == len(unread) {
						break scan // covers everything left: cannot be beaten
					}
				}
			}
		}
		rest := unread[:0]
		for _, j := range unread {
			if p := indexOf(chains[j], best); p >= 0 {
				promote(chains[j], p)
			} else {
				rest = append(rest, j)
			}
		}
		unread = rest
	}
}

// indexOf returns the position of addr in chain, or -1.
func indexOf(chain []string, addr string) int {
	for i, a := range chain {
		if a == addr {
			return i
		}
	}
	return -1
}

// promote moves chain[p] to the head, keeping the order of the rest.
func promote(chain []string, p int) {
	head := chain[p]
	copy(chain[1:p+1], chain[:p])
	chain[0] = head
}
