// Package lru is a small fixed-capacity LRU cache with
// singleflight-style construction: GetOrCreate runs the builder for a
// missing key exactly once, outside the cache lock, while concurrent
// callers for the same key wait on the in-flight build and callers for
// other keys proceed untouched. whirlpoold uses it for its engine and
// plan caches, where the old unbounded map guarded by one mutex let a
// single slow build stall every in-flight request.
package lru

import (
	"container/list"
	"errors"
	"sync"
)

// PostingsCap bounds index.Index's cache of (tag, value test) posting
// lists, on either backing. The value in the key comes from the
// request, so an unbounded map would grow with every distinct constant
// a client sends.
const PostingsCap = 1024

// ErrBuildPanicked is what callers waiting on a build get if it panics.
var ErrBuildPanicked = errors.New("lru: build panicked")

// flight is one cache slot: the key, the built value, and the
// singleflight rendezvous. ready closes when the build finishes; val
// and err are immutable afterwards.
type flight[K comparable, V any] struct {
	key   K
	ready chan struct{}
	val   V
	err   error
}

// Cache is a bounded LRU map. All methods are safe for concurrent use.
// Eviction removes the least recently used entry, including entries
// whose build is still in flight (their waiters are unaffected — they
// hold the slot pointer — but the result is no longer cached).
type Cache[K comparable, V any] struct {
	mu        sync.Mutex
	capacity  int
	entries   map[K]*list.Element
	order     *list.List // front = most recently used
	evictions int64
}

// New returns a cache bounded to capacity entries (minimum 1).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K, V]{
		capacity: capacity,
		entries:  make(map[K]*list.Element),
		order:    list.New(),
	}
}

// Cap returns the cache's capacity.
func (c *Cache[K, V]) Cap() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.capacity
}

// Len returns the number of cached entries (including in-flight builds).
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// GetOrCreate returns the value under k, building it with build on a
// miss. The builder runs outside the cache lock; concurrent callers for
// the same key share one build (and its error), callers for other keys
// are never blocked by it. hit reports whether the value (or in-flight
// build) was already cached. A failed build is not cached: the slot is
// removed so a later call retries.
func (c *Cache[K, V]) GetOrCreate(k K, build func() (V, error)) (v V, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.entries[k]; ok {
		c.order.MoveToFront(el)
		f := el.Value.(*flight[K, V])
		c.mu.Unlock()
		<-f.ready
		return f.val, true, f.err
	}
	f := &flight[K, V]{key: k, ready: make(chan struct{})}
	el := c.order.PushFront(f)
	c.entries[k] = el
	c.evictLocked()
	c.mu.Unlock()

	// One defer settles the slot however build ends — a panic carries on
	// up this goroutine: waiters are released and no failed slot stays.
	f.err = ErrBuildPanicked // unless build returns
	defer func() {
		close(f.ready)
		if f.err != nil {
			c.mu.Lock()
			// Only remove our own slot: it may already have been evicted, or
			// (after eviction) a fresh build may occupy the key.
			if cur, ok := c.entries[k]; ok && cur == el {
				c.order.Remove(el)
				delete(c.entries, k)
			}
			c.mu.Unlock()
		}
	}()
	f.val, f.err = build()
	return f.val, false, f.err
}

// evictLocked trims the cache to capacity. Callers hold c.mu.
func (c *Cache[K, V]) evictLocked() {
	for c.order.Len() > c.capacity {
		el := c.order.Back()
		if el == nil {
			return
		}
		f := el.Value.(*flight[K, V])
		c.order.Remove(el)
		delete(c.entries, f.key)
		c.evictions++
	}
}

// Evictions returns the number of entries evicted for capacity since
// the cache was created (failed builds removed by their own caller are
// not evictions).
func (c *Cache[K, V]) Evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// Item is one completed cache entry.
type Item[K comparable, V any] struct {
	Key   K
	Value V
}

// Items returns the completed entries, most recently used first.
// Entries still building and entries whose build failed are skipped.
func (c *Cache[K, V]) Items() []Item[K, V] {
	c.mu.Lock()
	flights := make([]*flight[K, V], 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		flights = append(flights, el.Value.(*flight[K, V]))
	}
	c.mu.Unlock()
	out := make([]Item[K, V], 0, len(flights))
	for _, f := range flights {
		select {
		case <-f.ready:
			if f.err == nil {
				out = append(out, Item[K, V]{Key: f.key, Value: f.val})
			}
		default: // build still in flight
		}
	}
	return out
}
