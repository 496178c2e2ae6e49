// Package bounded provides the fixed-capacity memo map behind core's
// process-lifetime plumbing cache (each structure's routing function and
// tables). An entry is a pure function of its key, so forgetting one
// costs a rebuild and never changes a result; the cap is what keeps a
// long-running service sweeping fault plans from growing without limit.
package bounded

import "sync"

// Map is a concurrent map holding at most its capacity of entries: storing
// into a full map evicts the oldest stored entry first (insertion order;
// a hit does not refresh an entry's age, which keeps Load a plain lookup).
type Map[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]V
	// ring holds the keys in insertion order; once full, ring[next] is the
	// oldest and the slot the next store reuses.
	ring []K
	next int
}

// New returns an empty map that holds up to capacity entries.
func New[K comparable, V any](capacity int) *Map[K, V] {
	if capacity < 1 {
		panic("bounded: capacity must be positive")
	}
	return &Map[K, V]{m: make(map[K]V), ring: make([]K, 0, capacity)}
}

// Load returns the value stored under k.
func (c *Map[K, V]) Load(k K) (V, bool) {
	c.mu.Lock()
	v, ok := c.m[k]
	c.mu.Unlock()
	return v, ok
}

// LoadOrStore returns the value already stored under k, or stores v and
// returns it. loaded reports which.
func (c *Map[K, V]) LoadOrStore(k K, v V) (actual V, loaded bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.m[k]; ok {
		return cur, true
	}
	if len(c.ring) < cap(c.ring) {
		c.ring = append(c.ring, k)
	} else {
		delete(c.m, c.ring[c.next])
		c.ring[c.next] = k
		c.next++
		if c.next == len(c.ring) {
			c.next = 0
		}
	}
	c.m[k] = v
	return v, false
}

// Len returns the number of entries currently held.
func (c *Map[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
