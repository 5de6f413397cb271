package core

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/corpus"
)

func TestNewKeySortsAndDedups(t *testing.T) {
	k := NewKey(5, 1, 3, 1)
	if k.Size() != 3 {
		t.Fatalf("Size = %d, want 3", k.Size())
	}
	if got := k.Terms(); !reflect.DeepEqual(got, []corpus.TermID{1, 3, 5}) {
		t.Fatalf("Terms = %v", got)
	}
}

func TestKeyComparable(t *testing.T) {
	if NewKey(2, 1) != NewKey(1, 2) {
		t.Fatal("order-insensitive equality broken")
	}
	if NewKey(1, 2) == NewKey(1, 3) {
		t.Fatal("distinct keys equal")
	}
	m := map[Key]int{NewKey(7, 3): 1}
	if m[NewKey(3, 7)] != 1 {
		t.Fatal("map lookup by equivalent key failed")
	}
}

func TestKeyContains(t *testing.T) {
	k := NewKey(1, 5, 9)
	for _, tt := range []corpus.TermID{1, 5, 9} {
		if !k.Contains(tt) {
			t.Errorf("Contains(%d) = false", tt)
		}
	}
	if k.Contains(2) {
		t.Error("Contains(2) = true")
	}
}

func TestKeyExtendDrop(t *testing.T) {
	k := NewKey(1, 5)
	e := k.Extend(3)
	if got := e.Terms(); !reflect.DeepEqual(got, []corpus.TermID{1, 3, 5}) {
		t.Fatalf("Extend = %v", got)
	}
	if got := e.Drop(1).Terms(); !reflect.DeepEqual(got, []corpus.TermID{1, 5}) {
		t.Fatalf("Drop = %v", got)
	}
}

func TestKeyExtendDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate Extend")
		}
	}()
	NewKey(1).Extend(1)
}

func TestKeyOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on oversized key")
		}
	}()
	NewKey(1, 2, 3, 4, 5)
}

func TestSubkeys(t *testing.T) {
	k := NewKey(1, 2, 3)
	var subs []Key
	k.Subkeys(func(s Key) { subs = append(subs, s) })
	want := []Key{NewKey(2, 3), NewKey(1, 3), NewKey(1, 2)}
	if !reflect.DeepEqual(subs, want) {
		t.Fatalf("Subkeys = %v, want %v", subs, want)
	}
	NewKey(9).Subkeys(func(Key) { t.Fatal("size-1 key has no proper subkeys") })
}

func TestIsSubsetOf(t *testing.T) {
	cases := []struct {
		a, b Key
		want bool
	}{
		{NewKey(1), NewKey(1, 2), true},
		{NewKey(2), NewKey(1, 2), true},
		{NewKey(1, 2), NewKey(1, 2), true},
		{NewKey(3), NewKey(1, 2), false},
		{NewKey(1, 2, 3), NewKey(1, 2), false},
		{NewKey(1, 3), NewKey(1, 2, 3), true},
	}
	for _, c := range cases {
		if got := c.a.IsSubsetOf(c.b); got != c.want {
			t.Errorf("%v ⊆ %v = %v, want %v", c.a.Terms(), c.b.Terms(), got, c.want)
		}
	}
}

func TestSubkeysAreSubsets(t *testing.T) {
	prop := func(a, b, c uint16) bool {
		ta, tb, tc := corpus.TermID(a), corpus.TermID(b), corpus.TermID(c)
		if ta == tb || tb == tc || ta == tc {
			return true
		}
		k := NewKey(ta, tb, tc)
		ok := true
		k.Subkeys(func(s Key) {
			if !s.IsSubsetOf(k) || s.Size() != k.Size()-1 {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestCanonicalStringAndParse(t *testing.T) {
	vocab := []string{"alpha", "beta", "gamma", "delta"}
	e := &Engine{vocab: vocab, termID: map[string]corpus.TermID{}}
	for i, s := range vocab {
		e.termID[s] = corpus.TermID(i)
	}
	for _, k := range []Key{NewKey(0), NewKey(2, 0), NewKey(3, 1, 0)} {
		got, err := e.parseKey(k.CanonicalString(vocab))
		if err != nil {
			t.Fatal(err)
		}
		if got != k {
			t.Fatalf("round trip: got %v, want %v", got.Terms(), k.Terms())
		}
	}
	if _, err := e.parseKey("nope"); err == nil {
		t.Error("unknown term accepted")
	}
}

func TestDisplayString(t *testing.T) {
	vocab := []string{"alpha", "beta"}
	if got := NewKey(1, 0).DisplayString(vocab); got != "alpha+beta" {
		t.Fatalf("DisplayString = %q", got)
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(statsFor(100, 50))
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.DFMax = 0 },
		func(c *Config) { c.SMax = 0 },
		func(c *Config) { c.SMax = MaxKeySize + 1 },
		func(c *Config) { c.Window = 1 },
		func(c *Config) { c.Ff = 0 },
	}
	for i, mutate := range bad {
		c := good
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// referenceKey is the specification the packed key must match: sort the
// ids, drop duplicates.
func referenceKey(ids []corpus.TermID) []corpus.TermID {
	out := append([]corpus.TermID{}, ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return slices.Compact(out)
}

// TestKeyAlgebraMatchesReference checks every constructor and editor of
// the packed key against sort-and-dedupe over random multisets of 0-4
// ids drawn from a small range (so duplicates and adjacencies are common).
func TestKeyAlgebraMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 5000; iter++ {
		ids := make([]corpus.TermID, rng.Intn(MaxKeySize+1))
		for i := range ids {
			ids[i] = corpus.TermID(rng.Intn(9))
			if rng.Intn(8) == 0 {
				ids[i] = noTerm - 1 - corpus.TermID(rng.Intn(2)) // the top of the id space sorts last
			}
		}
		want := referenceKey(ids)
		k := NewKey(ids...)
		if got := k.Terms(); !reflect.DeepEqual(got, want) || k.Size() != len(want) {
			t.Fatalf("NewKey(%v) = %v (size %d), want %v", ids, got, k.Size(), want)
		}
		for i := len(want); i < MaxKeySize; i++ {
			if k.t[i] != noTerm {
				t.Fatalf("NewKey(%v): unused slot %d holds %d", ids, i, k.t[i])
			}
		}
		// Extend by a non-member = the reference over ids + that term;
		// Extend by a member panics.
		if extra := corpus.TermID(rng.Intn(12)); !k.Contains(extra) && k.Size() < MaxKeySize {
			if got, want := k.Extend(extra), NewKey(append(append([]corpus.TermID{}, ids...), extra)...); got != want ||
				!reflect.DeepEqual(got.Terms(), referenceKey(append(ids, extra))) {
				t.Fatalf("NewKey(%v).Extend(%d) = %v, want %v", ids, extra, got.Terms(), want.Terms())
			}
		}
		for _, member := range want {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("NewKey(%v).Extend(%d): no panic on a duplicate", ids, member)
					}
				}()
				k.Extend(member)
			}()
		}
		// Drop(i) removes exactly the i-th term; re-extending restores k;
		// Subkeys visits the Drop(0..n-1) sequence, each a subset of k.
		var subs []Key
		k.Subkeys(func(s Key) { subs = append(subs, s) })
		if k.Size() <= 1 && len(subs) != 0 {
			t.Fatalf("key %v of size %d has %d proper sub-keys", want, k.Size(), len(subs))
		}
		for i := 0; i < k.Size(); i++ {
			d := k.Drop(i)
			rest := append(append([]corpus.TermID{}, want[:i]...), want[i+1:]...)
			if !reflect.DeepEqual(d.Terms(), rest) || d != NewKey(rest...) {
				t.Fatalf("%v.Drop(%d) = %v, want %v", want, i, d.Terms(), rest)
			}
			if back := d.Extend(want[i]); back != k {
				t.Fatalf("%v.Drop(%d).Extend(%d) = %v", want, i, want[i], back.Terms())
			}
			if !d.IsSubsetOf(k) || (k.Size() > 0 && k.IsSubsetOf(d)) {
				t.Fatalf("subset relation broken between %v and %v", d.Terms(), want)
			}
			if k.Size() > 1 && subs[i] != d {
				t.Fatalf("%v.Subkeys()[%d] = %v, want Drop(%d) = %v", want, i, subs[i].Terms(), i, d.Terms())
			}
		}
	}
}

// TestKeyAlgebraDoesNotAllocate is the "no allocation on the candidate-
// generation path" promise of the Key doc comment, held at zero.
func TestKeyAlgebraDoesNotAllocate(t *testing.T) {
	a, b, c, d := corpus.TermID(40), corpus.TermID(7), corpus.TermID(23), corpus.TermID(7)
	var sink Key
	var visited int
	for name, fn := range map[string]func(){
		"NewKey":  func() { sink = NewKey(a, b, c, d) },
		"Extend":  func() { sink = NewKey(a, b).Extend(c) },
		"Drop":    func() { sink = NewKey(a, b, c).Drop(1) },
		"Subkeys": func() { NewKey(a, b, c).Subkeys(func(s Key) { visited += s.Size() }) },
	} {
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", name, allocs)
		}
	}
	_, _ = sink, visited
}
