package network

import "testing"

// The reference paths the fast paths are proven against. Neither is
// reachable from Config: they change no output byte, only speed, so only
// the equivalence tests select them.

// useNoSkip switches a network fresh from New to the tick-everything
// reference core: every router ticks and every injector is scanned each
// cycle, nobody sleeps and no stretch is fast-forwarded, exactly the loops
// of the simulator before activity tracking. The tile engine has no such
// core, so a tiled network is refused.
func useNoSkip(t *testing.T, n *Network) *Network {
	t.Helper()
	switch {
	case n.tiles != nil:
		t.Fatal("useNoSkip: a tiled network has no tick-everything core")
	case n.model != nil || n.cycle != 0:
		t.Fatal("useNoSkip: must run before Launch and the first cycle")
	}
	n.noskip = true
	for i := range n.Routers {
		n.markActive(i)
		n.markInject(i)
	}
	return n
}

// useRefAllocators switches every router to its retained full-scan
// reference allocator stages instead of the incremental work lists.
func useRefAllocators(n *Network) {
	for _, r := range n.Routers {
		r.Ref = true
	}
}
