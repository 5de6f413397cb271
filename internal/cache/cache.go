// Package cache provides the small generic LRU behind the cluster
// daemon's per-node query-result cache (cluster.Server, the hdk.search
// path): whole coordinated answers keyed by the canonical request bytes,
// cleared through the store's write-through mutation hook. It is the
// caching mitigation the paper's related work proposes for distributed
// indexes ("top-k posting list joins, Bloom filters, and caching as
// promising techniques to reduce search costs"), placed where the
// cache-size literature in PAPERS.md puts it for DHT designs: where the
// lookup lands, once, at the coordinator.
//
// The LRU is concurrency-safe; the daemon counts its hits and misses in
// its own metrics registry.
package cache

import (
	"container/list"
	"sync"
)

// LRU is a fixed-capacity least-recently-used map from string keys to
// values. Safe for concurrent use.
type LRU[V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List
	items map[string]*list.Element
}

type lruEntry[V any] struct {
	key string
	val V
}

// NewLRU creates a cache holding at most capacity entries. A capacity
// <= 0 yields a cache that stores nothing (all lookups miss), which lets
// callers disable caching without branching.
func NewLRU[V any](capacity int) *LRU[V] {
	return &LRU[V]{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// Get returns the cached value and whether it was present.
func (c *LRU[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*lruEntry[V]).val, true
	}
	var zero V
	return zero, false
}

// Put inserts or refreshes a value, evicting the least recently used
// entry when over capacity.
func (c *LRU[V]) Put(key string, val V) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&lruEntry[V]{key: key, val: val})
	c.items[key] = el
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[V]).key)
	}
}

// Clear drops every entry.
func (c *LRU[V]) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.items)
}

// Len returns the number of resident entries.
func (c *LRU[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
