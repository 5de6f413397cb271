package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetPut(t *testing.T) {
	c := NewLRU[int](2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d,%v", v, ok)
	}
}

func TestEvictionOrder(t *testing.T) {
	c := NewLRU[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Get("a")    // a is now most recent
	c.Put("c", 3) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a wrongly evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c missing")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestPutRefreshesExisting(t *testing.T) {
	c := NewLRU[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10) // refresh, a most recent
	c.Put("c", 3)  // evicts b
	if v, ok := c.Get("a"); !ok || v != 10 {
		t.Fatalf("Get(a) = %d,%v, want 10,true", v, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
}

func TestClear(t *testing.T) {
	c := NewLRU[string](4)
	c.Put("x", "1")
	c.Put("y", "2")
	c.Clear()
	if c.Len() != 0 {
		t.Fatalf("Len after Clear = %d", c.Len())
	}
	if _, ok := c.Get("y"); ok {
		t.Fatal("cleared key still present")
	}
}

func TestZeroCapacityDisables(t *testing.T) {
	c := NewLRU[int](0)
	c.Put("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("zero-capacity cache stored a value")
	}
	if c.Len() != 0 {
		t.Fatal("zero-capacity cache non-empty")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := NewLRU[int](64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (w*31+i)%100)
				if i%3 == 0 {
					c.Put(key, i)
				} else {
					c.Get(key)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Fatalf("cache exceeded capacity: %d", c.Len())
	}
}

// TestConcurrentMutationAndLookup drives every mutating operation
// (Put, Clear) against concurrent lookups (Get, Len)
// under the race detector — the access pattern of a cluster daemon
// whose mutation hook clears the result cache while coordinations are
// reading and filling it.
func TestConcurrentMutationAndLookup(t *testing.T) {
	c := NewLRU[[]byte](32)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		// Readers: lookups plus size reads.
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 800; i++ {
				key := fmt.Sprintf("k%d", (w*13+i)%50)
				if v, ok := c.Get(key); ok && len(v) == 0 {
					t.Error("cached value lost its contents")
					return
				}
				c.Len()
			}
		}(w)
		// Writers: fills racing invalidation.
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 800; i++ {
				key := fmt.Sprintf("k%d", (w*17+i)%50)
				if i%5 == 4 {
					c.Clear()
				} else {
					c.Put(key, []byte(key))
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 32 {
		t.Fatalf("cache exceeded capacity: %d", c.Len())
	}
}

func TestCapacityOne(t *testing.T) {
	c := NewLRU[int](1)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("a survived in capacity-1 cache")
	}
	if v, ok := c.Get("b"); !ok || v != 2 {
		t.Fatal("b missing from capacity-1 cache")
	}
}
