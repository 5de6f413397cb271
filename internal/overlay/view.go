package overlay

import (
	"sort"
	"sync"
	"sync/atomic"
)

// View is one immutable membership snapshot: the members in ring order
// (by ID) with an address index, plus the repair debt. Transitions
// return a new View and never modify the receiver, so a holder publishes
// views through an atomic pointer and readers resolve placement without
// a lock.
//
// The debt is the one rule replication adds to "key → responsible
// peers". After a crash (Forget) every replica set the member belonged
// to promotes a member that holds no copy yet, so only a key's primary
// is known to hold a full one until a repair sweep has re-replicated.
// Repaired settles the debt only for a sweep over exactly this member
// set: a sweep over any other set computed other replica sets. A
// graceful Leave, whose caller hands the member's entries to their new
// owners, owes nothing new; Adopt carries a seed's debt to whoever takes
// its view.
type View struct {
	ids     []ID // ring order
	members []Member
	byAddr  map[string]Member
	owed    bool
}

// newView orders members on the ring and indexes them by address.
func newView(members []Member, owed bool) View {
	sort.Slice(members, func(i, j int) bool { return members[i].ID() < members[j].ID() })
	v := View{ids: make([]ID, len(members)), members: members, owed: owed}
	v.byAddr = make(map[string]Member, len(members))
	for i, m := range members {
		v.ids[i] = m.ID()
		v.byAddr[m.Addr()] = m
	}
	return v
}

// Members returns the members in ring order.
func (v View) Members() []Member { return append([]Member(nil), v.members...) }

// Addrs returns the member addresses in ring order: the identity a swept
// membership travels as (see Repaired).
func (v View) Addrs() []string {
	out := make([]string, len(v.members))
	for i, m := range v.members {
		out[i] = m.Addr()
	}
	return out
}

// Size returns the member count.
func (v View) Size() int { return len(v.members) }

// Owed reports the repair debt: a member crashed and no sweep over this
// member set has completed since. While owed, reads go primary-first.
func (v View) Owed() bool { return v.owed }

// Member returns the member bound at addr.
func (v View) Member(addr string) (Member, bool) {
	m, ok := v.byAddr[addr]
	return m, ok
}

// Lookup returns the member at ring position id.
func (v View) Lookup(id ID) (Member, bool) {
	if i := v.search(id); i < len(v.ids) && v.ids[i] == id {
		return v.members[i], true
	}
	return nil, false
}

// search returns the index of the first member at or after x (Size()
// when there is none).
func (v View) search(x ID) int {
	return sort.Search(len(v.ids), func(i int) bool { return v.ids[i] >= x })
}

// successor returns the first member at or after ring position x,
// wrapping (nil on an empty view).
func (v View) successor(x ID) Member {
	if len(v.members) == 0 {
		return nil
	}
	i := v.search(x)
	if i == len(v.members) {
		i = 0
	}
	return v.members[i]
}

// Owner returns the key's primary: its ring successor.
func (v View) Owner(key string) (Member, bool) {
	m := v.successor(HashKey(key))
	return m, m != nil
}

// OwnersOf is successor-list placement: the first r distinct members at
// or after the key's ring position, primary first (the classical Chord
// replication scheme). It is churn-stable: when the primary leaves, the
// key's new successor is exactly the old second replica, so a read
// lands on a member that already holds the replicated data.
func (v View) OwnersOf(key string, r int) []Member {
	n := len(v.members)
	if n == 0 || r < 1 {
		return nil
	}
	if r > n {
		r = n
	}
	start := v.search(HashKey(key))
	out := make([]Member, r)
	for k := range out {
		out[k] = v.members[(start+k)%n]
	}
	return out
}

// Join returns the view with m added (no member added when m's ring
// position is taken).
func (v View) Join(m Member) View { return v.Adopt([]Member{m}, false) }

// Adopt returns the view joined with members — a seed's view, taken by
// a dialing client or a joining daemon — owing whatever either owed.
// Members whose ring position is taken are skipped.
func (v View) Adopt(members []Member, owed bool) View {
	merged := v.Members()
	taken := make(map[ID]bool, len(members))
	for _, m := range members {
		if _, ok := v.Lookup(m.ID()); !ok && !taken[m.ID()] {
			taken[m.ID()] = true
			merged = append(merged, m)
		}
	}
	return newView(merged, v.owed || owed)
}

// Forget returns the view without a crashed member; it owes a repair.
func (v View) Forget(id ID) View { return v.without(id, true) }

// Leave returns the view without a member that left gracefully; it owes
// nothing new.
func (v View) Leave(id ID) View { return v.without(id, false) }

func (v View) without(id ID, crash bool) View {
	i := v.search(id)
	if i == len(v.ids) || v.ids[i] != id {
		return v
	}
	kept := make([]Member, 0, len(v.members)-1)
	kept = append(append(kept, v.members[:i]...), v.members[i+1:]...)
	return newView(kept, v.owed || crash)
}

// Repaired returns the view with its debt settled if swept — the
// addresses a completed repair sweep placed copies for — is exactly this
// member set; otherwise the view itself.
func (v View) Repaired(swept []string) View {
	if !v.owed || len(swept) != len(v.members) {
		return v
	}
	seen := make(map[string]bool, len(swept))
	for _, a := range swept {
		if _, ok := v.byAddr[a]; !ok || seen[a] {
			return v
		}
		seen[a] = true
	}
	v.owed = false
	return v
}

// Membership is where a fabric keeps its View: readers take it with one
// atomic load, transitions serialize on a mutex. It answers every
// placement and churn method of Fabric from the view's ring placement.
type Membership struct {
	mu  sync.Mutex
	cur atomic.Pointer[View]
}

// View returns the current membership with its debt.
func (m *Membership) View() View {
	if v := m.cur.Load(); v != nil {
		return *v
	}
	return View{}
}

// Members returns the members in ring order.
func (m *Membership) Members() []Member { return m.View().Members() }

// Size returns the member count.
func (m *Membership) Size() int { return m.View().Size() }

// OwnerOf returns the key's primary (View.Owner).
func (m *Membership) OwnerOf(key string) (Member, bool) { return m.View().Owner(key) }

// OwnersOf returns the key's replica set (View.OwnersOf).
func (m *Membership) OwnersOf(key string, r int) []Member { return m.View().OwnersOf(key, r) }

// Apply moves the membership through one transition and returns the
// view it started from. The transition runs under the mutex, so it must
// not block or call back into the Membership.
func (m *Membership) Apply(transition func(View) View) (before View) {
	m.mu.Lock()
	defer m.mu.Unlock()
	before = m.View()
	after := transition(before)
	m.cur.Store(&after)
	return before
}

// RemoveNode implements Fabric: a crashed member leaves (View.Forget).
func (m *Membership) RemoveNode(id ID) bool {
	_, ok := m.Apply(func(v View) View { return v.Forget(id) }).Lookup(id)
	return ok
}

// Leave implements Fabric: a member leaves gracefully (View.Leave).
func (m *Membership) Leave(id ID) bool {
	_, ok := m.Apply(func(v View) View { return v.Leave(id) }).Lookup(id)
	return ok
}

// MarkRepaired implements Fabric (View.Repaired).
func (m *Membership) MarkRepaired(swept []string) error {
	m.Apply(func(v View) View { return v.Repaired(swept) })
	return nil
}
