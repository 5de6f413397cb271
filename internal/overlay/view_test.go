package overlay

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/transport"
)

// stub is a bare Member for view tests.
type stub struct {
	id   ID
	addr string
}

func (s stub) ID() ID                           { return s.id }
func (s stub) Addr() string                     { return s.addr }
func (s stub) Handle(string, transport.Handler) {}

// model is the debt rule written out by hand: a member set and one bit.
type model struct {
	members map[string]bool
	owed    bool
}

func (m model) addrs() []string {
	out := make([]string, 0, len(m.members))
	for a := range m.members {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

func sortedAddrs(v View) []string {
	a := v.Addrs()
	sort.Strings(a)
	return a
}

// sameView reports whether two views hold the same members and debt.
func sameView(a, b View) bool {
	return slices.Equal(a.Addrs(), b.Addrs()) && a.Owed() == b.Owed()
}

// bruteOwners is successor-list placement by definition: members sorted
// by ring position, the first at or after the key's hash (wrapping),
// then the next r−1 in ring order.
func bruteOwners(members []Member, key string, r int) []string {
	ms := append([]Member(nil), members...)
	sort.Slice(ms, func(i, j int) bool { return ms[i].ID() < ms[j].ID() })
	if len(ms) == 0 || r < 1 {
		return nil
	}
	h, start := HashKey(key), 0
	for start < len(ms) && ms[start].ID() < h {
		start++
	}
	var out []string
	for k := 0; k < r && k < len(ms); k++ {
		out = append(out, ms[(start+k)%len(ms)].Addr())
	}
	return out
}

func addrsOf(ms []Member) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Addr()
	}
	return out
}

// TestViewProperties drives seeded random sequences of Join, Forget,
// Leave, Adopt and Repaired (with current and stale swept sets) and
// checks, after every step, the view against the hand-written model, the
// transition's receiver left untouched, and the debt rules as properties:
// forget and repair commute, a stale Repaired is ignored, an adopter
// inherits the debt, a graceful leave owes nothing new, and OwnersOf is
// the brute-force successor list.
func TestViewProperties(t *testing.T) {
	pool := make([]Member, 10)
	for i := range pool {
		addr := fmt.Sprintf("m%d", i)
		pool[i] = stub{id: HashNode(addr), addr: addr}
	}
	const seeds, steps = 1000, 24
	for seed := uint64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		var v View
		m := model{members: map[string]bool{}}
		var history [][]string // swept sets of earlier views: the stale notices
		for step := 0; step < steps; step++ {
			x := pool[rng.IntN(len(pool))]
			before, beforeAddrs, beforeOwed := v, v.Addrs(), v.Owed()
			var op string
			switch rng.IntN(6) {
			case 0, 1:
				op = "join " + x.Addr()
				v = v.Join(x)
				m.members[x.Addr()] = true
			case 2:
				op = "forget " + x.Addr()
				v = v.Forget(x.ID())
				if m.members[x.Addr()] {
					delete(m.members, x.Addr())
					m.owed = true
				}
			case 3:
				op = "leave " + x.Addr()
				v = v.Leave(x.ID())
				delete(m.members, x.Addr())
			case 4:
				var seen []Member
				for _, p := range pool {
					if rng.IntN(3) == 0 {
						seen = append(seen, p)
						m.members[p.Addr()] = true
					}
				}
				owed := rng.IntN(2) == 0
				op = fmt.Sprint("adopt ", addrsOf(seen), " owed=", owed)
				v = v.Adopt(seen, owed)
				m.owed = m.owed || owed
			case 5:
				swept := v.Addrs()
				if len(history) > 0 && rng.IntN(2) == 0 {
					swept = history[rng.IntN(len(history))]
				}
				rng.Shuffle(len(swept), func(i, j int) { swept[i], swept[j] = swept[j], swept[i] })
				op = fmt.Sprintf("repaired %v", swept)
				v = v.Repaired(swept)
				sw := append([]string(nil), swept...)
				sort.Strings(sw)
				if slices.Equal(sw, m.addrs()) {
					m.owed = false
				}
			}
			history = append(history, v.Addrs())
			where := func() string { return fmt.Sprintf("seed %d step %d (%s)", seed, step, op) }

			if !slices.Equal(before.Addrs(), beforeAddrs) || before.Owed() != beforeOwed {
				t.Fatalf("%s: the transition modified its receiver", where())
			}
			if got := sortedAddrs(v); !slices.Equal(got, m.addrs()) || v.Owed() != m.owed {
				t.Fatalf("%s: view %v owed=%t, model %v owed=%t", where(), got, v.Owed(), m.addrs(), m.owed)
			}
			members := v.Members()
			for i, mem := range members {
				if i > 0 && members[i-1].ID() >= mem.ID() {
					t.Fatalf("%s: members not in ring order", where())
				}
				if got, ok := v.Member(mem.Addr()); !ok || got.ID() != mem.ID() {
					t.Fatalf("%s: address index misses %s", where(), mem.Addr())
				}
				if got, ok := v.Lookup(mem.ID()); !ok || got.Addr() != mem.Addr() {
					t.Fatalf("%s: ring lookup misses %s", where(), mem.Addr())
				}
			}

			// Forget and repair commute: the sweep over the post-forget
			// membership settles the debt whether its notice lands after
			// the forget, or before it and again after (Client.Forget
			// re-sends a repaired view's notice).
			if _, member := v.Lookup(x.ID()); member {
				s := v.Forget(x.ID()).Addrs()
				a := v.Forget(x.ID()).Repaired(s)
				b := v.Repaired(s).Forget(x.ID()).Repaired(s)
				if !sameView(a, b) || a.Owed() {
					t.Fatalf("%s: forget %s and repair do not commute", where(), x.Addr())
				}
				// A graceful leave owes nothing new.
				if v.Leave(x.ID()).Owed() != v.Owed() {
					t.Fatalf("%s: leave of %s changed the debt", where(), x.Addr())
				}
				if !v.Forget(x.ID()).Owed() {
					t.Fatalf("%s: forget of %s owes nothing", where(), x.Addr())
				}
			}
			// A stale notice — any swept set that is not this membership —
			// leaves the debt as it is.
			for k := 0; k < 3; k++ {
				stale := history[rng.IntN(len(history))]
				sw := append([]string(nil), stale...)
				sort.Strings(sw)
				if !slices.Equal(sw, sortedAddrs(v)) && !sameView(v.Repaired(stale), v) {
					t.Fatalf("%s: stale notice %v moved the view", where(), stale)
				}
			}
			// An adopter — a dialing client, a joining daemon — inherits
			// the seed's members and its debt, whatever it owed before.
			if adopted := (View{}).Adopt(v.Members(), v.Owed()); !sameView(adopted, v) {
				t.Fatalf("%s: a fresh adopter took %v owed=%t", where(), adopted.Addrs(), adopted.Owed())
			}
			if v.Owed() && !(View{}).Join(x).Adopt(v.Members(), v.Owed()).Owed() {
				t.Fatalf("%s: a joiner did not inherit the debt", where())
			}
			// Placement is the successor list, by definition.
			for k := 0; k < 4; k++ {
				key, r := fmt.Sprintf("key-%d", rng.IntN(1000)), rng.IntN(v.Size()+2)
				if got, want := addrsOf(v.OwnersOf(key, r)), bruteOwners(v.Members(), key, r); !slices.Equal(got, want) {
					t.Fatalf("%s: OwnersOf(%s, %d) = %v, want %v", where(), key, r, got, want)
				}
				if o, ok := v.Owner(key); ok != (v.Size() > 0) || ok && o.Addr() != bruteOwners(v.Members(), key, 1)[0] {
					t.Fatalf("%s: Owner(%s) is not the successor", where(), key)
				}
			}
		}
	}
}

// TestMembershipConcurrentTransitions: transitions applied from several
// goroutines serialize — each runs under the Membership's mutex, so an
// unsynchronized counter in the transition sees every one —
// while readers on other goroutines always load a whole view.
func TestMembershipConcurrentTransitions(t *testing.T) {
	pool := make([]Member, 8)
	for i := range pool {
		addr := fmt.Sprintf("m%d", i)
		pool[i] = stub{id: HashNode(addr), addr: addr}
	}
	var m Membership
	changes := 0
	apply := func(transition func(View) View) {
		m.Apply(func(v View) View { changes++; return transition(v) })
	}
	const writers, rounds = 4, 200
	var writing, reading sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := m.View()
				for _, a := range v.Addrs() {
					if _, ok := v.Member(a); !ok {
						t.Errorf("torn view: %s listed but not indexed", a)
						return
					}
				}
				if owners := v.OwnersOf("key", 2); len(owners) != min(2, v.Size()) {
					t.Errorf("OwnersOf over %d members returned %d", v.Size(), len(owners))
					return
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func() {
			defer writing.Done()
			for i := 0; i < rounds; i++ {
				x := pool[(w*3+i)%len(pool)]
				apply(func(v View) View { return v.Join(x) })
				apply(func(v View) View { return v.Forget(x.ID()) })
				apply(func(v View) View { return v.Repaired(v.Addrs()) })
			}
		}()
	}
	writing.Wait()
	close(stop)
	reading.Wait()
	if want := writers * rounds * 3; changes != want {
		t.Fatalf("transitions ran %d times, want %d", changes, want)
	}
}
