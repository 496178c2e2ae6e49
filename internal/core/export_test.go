package core

import "lapses/internal/network"

// RunWith is Run with seam editing the network configuration just before
// the network is reset to it: how an external test sets a kernel
// parameter no Config field carries, such as a shorter retransmission
// timeout than the reliability layer's.
func RunWith(cfg Config, seam func(*network.Config)) (Result, error) {
	return run(cfg, arenas, seam)
}
