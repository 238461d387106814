package traffic

import (
	"fmt"
	"math/bits"

	"repro/internal/sim"
	"repro/internal/topology"
)

// This file collects the classic synthetic destination patterns used to
// stress interconnection networks (Dally & Towles). Each returns a pattern
// function for Permutation, except Hotspot, which is its own model.

// BitReverse returns the bit-reversal permutation: node i sends to the node
// whose index is i's bit pattern reversed (over log2(Nodes) bits). It
// refuses a node count that is not a power of two.
func BitReverse(t *topology.Cube) (func(int) int, error) {
	w, err := indexBits("bit-reverse", t)
	if err != nil {
		return nil, err
	}
	return func(src int) int {
		return int(bits.Reverse(uint(src)) >> (bits.UintSize - w))
	}, nil
}

// Shuffle returns the perfect-shuffle permutation: rotate the index bits
// left by one. It refuses a node count that is not a power of two.
func Shuffle(t *topology.Cube) (func(int) int, error) {
	w, err := indexBits("shuffle", t)
	if err != nil {
		return nil, err
	}
	n := t.Nodes()
	return func(src int) int {
		return ((src << 1) | (src >> (w - 1))) & (n - 1)
	}, nil
}

// indexBits reports log2 of t's node count, the width the bit-permutation
// patterns work over, or an error naming pattern when the count is not a
// power of two.
func indexBits(pattern string, t *topology.Cube) (int, error) {
	n := t.Nodes()
	if n&(n-1) != 0 {
		return 0, fmt.Errorf("traffic: %s needs a power-of-two node count, not %d", pattern, n)
	}
	return bits.Len(uint(n)) - 1, nil
}

// Tornado returns the tornado pattern: each node sends halfway around its
// row (dimension 0), the worst case for rings and tori.
func Tornado(t *topology.Cube) func(int) int {
	return func(src int) int {
		x := t.Coord(src, 0)
		nx := (x + (t.K()+1)/2 - 1) % t.K()
		return src + (nx - x) // adjust dimension-0 coordinate only
	}
}

// Hotspot sends a fraction of all traffic to one hot node and spreads the
// rest uniformly — the classic saturation stressor for shared resources.
type Hotspot struct {
	Topo        *topology.Cube
	RatePerNode float64
	CyclePeriod sim.Duration
	Seed        uint64
	// Hot is the hot node; Fraction the share of packets addressed to it.
	Hot      int
	Fraction float64
}

// Name implements Model.
func (h *Hotspot) Name() string { return "hotspot" }

// Launch implements Model.
func (h *Hotspot) Launch(sched *sim.Scheduler, horizon sim.Time, inject Injector) {
	root := sim.NewRNG(h.Seed)
	meanGap := nodeGap(h.CyclePeriod, h.RatePerNode)
	for n := 0; n < h.Topo.Nodes(); n++ {
		n := n
		if n == h.Hot {
			continue
		}
		rng := root.Split()
		var emit func()
		emit = func() {
			dst := h.Hot
			if rng.Float64() >= h.Fraction {
				dst = rng.Intn(h.Topo.Nodes() - 1)
				if dst >= n {
					dst++
				}
			}
			inject(n, dst, sched.Now(), -1)
			next := sched.Now() + sim.Time(rng.Exp(meanGap))
			if next <= horizon {
				sched.At(next, emit)
			}
		}
		first := sched.Now() + sim.Time(rng.Exp(meanGap))
		if first <= horizon {
			sched.At(first, emit)
		}
	}
}
