// Package lockguard is golden testdata for the lockguard analyzer.
package lockguard

import "sync"

type counter struct {
	name string // declared before mu: unguarded

	mu    sync.Mutex
	count int
	hits  map[string]int
}

func (c *counter) inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.count++
}

func (c *counter) bad() int {
	return c.count // want `counter\.count is guarded by counter\.mu, but method bad never locks it`
}

func (c *counter) badTwice() int {
	c.count++          // want `counter\.count is guarded`
	return len(c.hits) // want `counter\.hits is guarded`
}

func (c *counter) readName() string { return c.name }

// flush resets the counters. Callers hold c.mu.
// +whirllint:locked
func (c *counter) flush() {
	c.count = 0
	for k := range c.hits {
		delete(c.hits, k)
	}
}

type rw struct {
	mu   sync.RWMutex
	data []int
}

func (r *rw) read() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.data[0]
}

func (r *rw) sneak() []int {
	return r.data // want `rw\.data is guarded by rw\.mu`
}

// plain has no mutex; its fields are never guarded.
type plain struct {
	n int
}

func (p *plain) get() int { return p.n }

// ptrLock shares its mutex through a pointer: copying the struct
// copies the pointer, so value receivers still lock the real mutex and
// the guard check applies.
type ptrLock struct {
	mu *sync.Mutex
	n  int
}

func (p ptrLock) locked() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}

func (p ptrLock) unlocked() int {
	return p.n // want `ptrLock\.n is guarded by ptrLock\.mu, but method unlocked never locks it`
}
