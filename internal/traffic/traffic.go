// Package traffic implements the paper's communication workload models
// (Section 4.3). The centerpiece is the two-level model: Poisson-arriving
// communication task sessions placed by a sphere-of-locality rule (level
// one), each injecting packets with self-similar inter-arrivals produced by
// multiplexed Pareto ON/OFF sources (level two). Uniform-random and
// permutation generators are provided as the conventional baselines the
// paper contrasts against.
package traffic

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Injector receives one packet injection request: a packet from src to dst
// created at time now, tagged with the level-1 task session that produced
// it (-1 for sessionless models).
type Injector func(src, dst int, now sim.Time, task int64)

// Model schedules packet injections on a scheduler until a horizon.
type Model interface {
	// Launch arms the model's event chains. Events beyond horizon are not
	// scheduled. inject may be called many times per event.
	//
	// Every model must keep its next injection instant pending as a
	// scheduler event chain (each firing arms the next), never decide inside
	// the network's cycle loop: quiescent fast-forward bounds its jumps by
	// the earliest pending event, so that instant must be visible via
	// PeekTime. How far ahead of simulated time a model draws its own
	// private random stream is unobservable.
	Launch(sched *sim.Scheduler, horizon sim.Time, inject Injector)
	// Name identifies the model in experiment output.
	Name() string
}

// ValidNodeRate reports whether ratePerNode, in packets per cycle, suits
// the per-node models (Uniform, Permutation, Hotspot): finite, in (0, 1].
func ValidNodeRate(ratePerNode float64) error {
	if !(ratePerNode > 0 && ratePerNode <= 1) {
		return fmt.Errorf("traffic: per-node rate %g outside (0, 1] packets/cycle", ratePerNode)
	}
	return nil
}

// nodeGap is a per-node model's mean Poisson gap. It panics on a rate
// ValidNodeRate rejects rather than arm a chain that could never end.
func nodeGap(period sim.Duration, ratePerNode float64) float64 {
	if err := ValidNodeRate(ratePerNode); err != nil {
		panic(err)
	}
	return float64(period) / ratePerNode
}

// Uniform injects packets at each node as an independent Poisson process
// with uniformly random destinations — the spatially and temporally flat
// baseline the paper notes "does not exhibit any spatial or temporal
// variance".
type Uniform struct {
	Topo *topology.Cube
	// RatePerNode is packets per router cycle injected by each node.
	RatePerNode float64
	// CyclePeriod is the router clock period defining "cycle".
	CyclePeriod sim.Duration
	// Seed selects the deterministic random stream.
	Seed uint64
}

// Name implements Model.
func (u *Uniform) Name() string { return "uniform" }

// Launch implements Model.
func (u *Uniform) Launch(sched *sim.Scheduler, horizon sim.Time, inject Injector) {
	root := sim.NewRNG(u.Seed)
	meanGap := nodeGap(u.CyclePeriod, u.RatePerNode)
	for n := 0; n < u.Topo.Nodes(); n++ {
		n := n
		rng := root.Split()
		var emit func()
		emit = func() {
			dst := rng.Intn(u.Topo.Nodes() - 1)
			if dst >= n {
				dst++
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

// Permutation injects Poisson traffic where every node sends to a fixed
// partner given by a permutation pattern — spatial variance without
// temporal variance.
type Permutation struct {
	Topo        *topology.Cube
	RatePerNode float64
	CyclePeriod sim.Duration
	Seed        uint64
	// Pattern maps a source node to its destination. NewTranspose and
	// NewBitComplement build the classic patterns.
	Pattern func(src int) int
}

// Name implements Model.
func (p *Permutation) Name() string { return "permutation" }

// Launch implements Model.
func (p *Permutation) Launch(sched *sim.Scheduler, horizon sim.Time, inject Injector) {
	root := sim.NewRNG(p.Seed)
	meanGap := nodeGap(p.CyclePeriod, p.RatePerNode)
	for n := 0; n < p.Topo.Nodes(); n++ {
		n := n
		dst := p.Pattern(n)
		if dst == n {
			continue // fixed points send nothing
		}
		rng := root.Split()
		var emit func()
		emit = func() {
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

// Transpose returns the matrix-transpose permutation for a 2D cube:
// (x, y) sends to (y, x).
func Transpose(t *topology.Cube) func(int) int {
	return func(src int) int {
		x, y := t.Coord(src, 0), t.Coord(src, 1)
		return t.NodeAt(y, x)
	}
}

// BitComplement returns the bit-complement permutation: node i sends to
// Nodes-1-i.
func BitComplement(t *topology.Cube) func(int) int {
	n := t.Nodes()
	return func(src int) int { return n - 1 - src }
}
