// Package arbiter provides the arbiter used inside the PROUD router
// pipeline: a round-robin arbiter for switch allocation, VC allocation and
// VC multiplexing (fair, cheap, the common choice in the era's routers).
package arbiter

import "math/bits"

// RoundRobin is a rotating-priority arbiter: after granting requester i,
// requester i+1 has the highest priority next time. It is a two-byte
// value, so a router keeps the three arbiters of an output port inside
// that port's state record instead of in slabs of their own.
type RoundRobin struct {
	n, next uint8
}

// MakeRoundRobin returns a round-robin arbiter over n requesters (n <= 64).
func MakeRoundRobin(n int) RoundRobin {
	if n < 1 || n > 64 {
		panic("arbiter: size out of range [1,64]")
	}
	return RoundRobin{n: uint8(n)}
}

// Grant returns the index of the granted requester, or -1 if no bit of
// reqs is set. reqs is a bitmask over requester indices; the priority
// pointer advances only on a grant. The rotating-priority search is
// branch-free: the winner is the lowest set bit at or above the priority
// pointer, or the lowest set bit overall on wraparound — exactly what the
// equivalent rotating scan finds, in O(1) instead of O(n).
func (a *RoundRobin) Grant(reqs uint64) int {
	if a.n < 64 {
		reqs &= 1<<a.n - 1
	}
	if reqs == 0 {
		return -1
	}
	i := bits.TrailingZeros64(reqs &^ (1<<a.next - 1))
	if i == 64 {
		i = bits.TrailingZeros64(reqs)
	}
	a.next = uint8(i + 1)
	if a.next == a.n {
		a.next = 0
	}
	return i
}
