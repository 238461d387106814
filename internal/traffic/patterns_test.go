package traffic

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

func TestBitReverse(t *testing.T) {
	topo := topology.NewMesh2D(8) // 64 nodes, 6 bits
	br, err := BitReverse(topo)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct{ src, dst int }{
		{0, 0},
		{1, 32}, // 000001 -> 100000
		{0b000011, 0b110000},
		{0b101010, 0b010101},
		{63, 63},
	}
	for _, tt := range tests {
		if got := br(tt.src); got != tt.dst {
			t.Errorf("bitreverse(%06b) = %06b, want %06b", tt.src, got, tt.dst)
		}
	}
	// Involution: reversing twice is identity.
	for i := 0; i < topo.Nodes(); i++ {
		if br(br(i)) != i {
			t.Fatalf("bit-reverse not an involution at %d", i)
		}
	}
}

func TestShufflePermutation(t *testing.T) {
	topo := topology.NewMesh2D(8)
	sh, err := Shuffle(topo)
	if err != nil {
		t.Fatal(err)
	}
	if got := sh(0b000001); got != 0b000010 {
		t.Errorf("shuffle(1) = %d, want 2", got)
	}
	if got := sh(0b100000); got != 0b000001 {
		t.Errorf("shuffle(32) = %d, want 1 (rotate)", got)
	}
	// Bijection check.
	seen := map[int]bool{}
	for i := 0; i < topo.Nodes(); i++ {
		d := sh(i)
		if seen[d] {
			t.Fatalf("shuffle not a bijection: %d repeated", d)
		}
		seen[d] = true
	}
}

func TestTornado(t *testing.T) {
	topo := topology.New(8, 2, true)
	tor := Tornado(topo)
	for src := 0; src < topo.Nodes(); src++ {
		dst := tor(src)
		// Same row (dimension 1 unchanged), dimension 0 shifted by k/2-1.
		if topo.Coord(dst, 1) != topo.Coord(src, 1) {
			t.Fatalf("tornado moved node %d off its row", src)
		}
		want := (topo.Coord(src, 0) + 3) % 8
		if topo.Coord(dst, 0) != want {
			t.Errorf("tornado(%d): x = %d, want %d", src, topo.Coord(dst, 0), want)
		}
	}
}

// TestPatternsRejectNonPowerOfTwo: the bit permutations refuse 9 and 36
// nodes with an error, never a panic, and accept 16 and 64.
func TestPatternsRejectNonPowerOfTwo(t *testing.T) {
	for _, k := range []int{3, 6, 4, 8} {
		topo, ok := topology.New(k, 2, false), k == 4 || k == 8
		for name, fn := range map[string]func(*topology.Cube) (func(int) int, error){
			"bitreverse": BitReverse,
			"shuffle":    Shuffle,
		} {
			if _, err := fn(topo); (err == nil) != ok {
				t.Errorf("%s on %d nodes: err = %v, want ok=%v", name, topo.Nodes(), err, ok)
			}
		}
	}
}

func TestHotspotConcentration(t *testing.T) {
	topo := topology.NewMesh2D(4)
	h := &Hotspot{
		Topo: topo, RatePerNode: 0.05, CyclePeriod: sim.Nanosecond,
		Seed: 3, Hot: 5, Fraction: 0.3,
	}
	got := collect(h, 50*sim.Microsecond)
	if len(got) == 0 {
		t.Fatal("no injections")
	}
	hot := 0
	for _, in := range got {
		if in.src == h.Hot {
			t.Fatal("hot node should not inject")
		}
		if in.dst == h.Hot {
			hot++
		}
	}
	frac := float64(hot) / float64(len(got))
	// 30% directed plus uniform spillover ~ (1-0.3)/15.
	want := 0.3 + 0.7/15
	if frac < want-0.05 || frac > want+0.05 {
		t.Errorf("hot fraction = %.3f, want ~%.3f", frac, want)
	}
}
