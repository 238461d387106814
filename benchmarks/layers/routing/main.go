// Probe routing times one route computation on the 8x8 mesh: the
// dimension-order function every workload uses, and the minimal-adaptive
// one that none does.
package main

import (
	"repro/benchmarks/internal/harness"
	"repro/internal/routing"
	"repro/internal/topology"
)

const (
	batches = 12
	routes  = 500_000
)

var sink int

func main() {
	topo := topology.NewMesh2D(8)
	st := routing.NewState()
	buf := make([]routing.MaskCandidate, 0, 8)
	m := harness.Metrics{}
	m.Set("routing.dor_route_ns", harness.MinPerOp(batches, routes, func() {
		alg := routing.DimensionOrder{}
		for i := 0; i < routes; i++ {
			sink += len(alg.RouteMask(topo, i%64, (i+37)%64, 2, st, buf[:0]))
		}
	}), "ns")
	m.Set("routing.adaptive_route_ns", harness.MinPerOp(batches, routes, func() {
		alg := routing.MinimalAdaptive{}
		for i := 0; i < routes; i++ {
			sink += len(alg.RouteMask(topo, i%64, (i+37)%64, 2, st, buf[:0]))
		}
	}), "ns")
	harness.ProbeOutput{Metrics: m}.Emit()
}
