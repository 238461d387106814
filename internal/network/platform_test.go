package network

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// platformDigests pins, per platform and load, the SHA-256 of the formatted
// Results snapshot. Every other equivalence suite compares two paths of the
// same build, and the golden figures are all 8x8 mesh + DOR, so a change to
// the per-cycle loop that moved numbers on a torus, under adaptive routing,
// on 7-port routers or with a router clock that does not divide the link
// periods would pass them all. The digests were generated at the commit
// before the fused per-router pass landed (PR 16, 9222c72) and must not
// change under a speed-only change; regenerate them only for an intentional
// modelling change, by clearing a want string and reading the failure.
var platformDigests = []struct {
	name   string
	mutate func(*Config)
	rate   float64
	want   string
}{
	{"torus4x4-dor/low", torus4x4, 0.05, "8b8fc1f32e97b8e44d70f315ce4b532d67bdcc9d0546edbff2e6d94b30489a9b"},
	{"torus4x4-dor/sat", torus4x4, 1.0, "b2502b1b9f4a0878593700028de9521d3a7bfbfe6ecef8a43876226bbf1f3d57"},
	{"mesh8x8-adaptive/low", mesh8x8Adaptive, 0.05, "cc74cd7f9161102ae9f877419f7bca1ea74ee33ad5640dada69e164cca3c50fa"},
	{"mesh8x8-adaptive/sat", mesh8x8Adaptive, 4.0, "6cc87f6f749fa3f6a5f23a159e96a6d873540b5065e4fe41ef6e9046b0e7961d"},
	{"cube3x3x3/low", cube3x3x3, 0.05, "749726985bed28c036159e987baea02bcf3a2d2031f04f3b5ff5285a25a1ae31"},
	{"cube3x3x3/sat", cube3x3x3, 3.0, "e9303a134fb322d2e7fdff993ca43d8d5659b0c0eb57ed06dc77f5a82dfdb6a9"},
	{"mesh4x4-rp700/low", routerPeriod(700), 0.05, "7a5000f4513d8355037d75bf59bc73b6ed181ca9133fb92b3e32a2b757f03166"},
	{"mesh4x4-rp700/sat", routerPeriod(700), 1.5, "802bdb54c3c567c6195b58a386cef1b20dca1be823c56af1771f9fe2423ec1ab"},
	{"mesh4x4-rp1500/low", routerPeriod(1500), 0.05, "a3f94717ac6ed29474279ec1b18d4597df792c47a2ca77e1187f4206028ed508"},
	{"mesh4x4-rp1500/sat", routerPeriod(1500), 2.5, "eddaf4b9ef42da7f49eb283c14ce4cde173238e81d88b2c82c0fcd3d17ea845e"},
}

func torus4x4(c *Config)        { c.K, c.Torus = 4, true }
func mesh8x8Adaptive(c *Config) { c.Routing = "adaptive" }
func cube3x3x3(c *Config)       { c.K, c.N, c.Router.Ports = 3, 3, 7 }

// routerPeriod returns a 4x4 mesh whose router clock differs from the top
// link period (1000 ps) and leaves a remainder on almost every level's
// period: at 700 ps the fastest link spans two router cycles, at 1500 ps
// less than one.
func routerPeriod(ps sim.Duration) func(*Config) {
	return func(c *Config) { c.K, c.RouterPeriod = 4, ps }
}

// TestPlatformDigests runs every pinned platform sequentially, on the
// tick-everything core (useNoSkip) and on two tiles; all three must
// reproduce the committed digest.
func TestPlatformDigests(t *testing.T) {
	const warmup, measure = 4_000, 12_000
	for _, pc := range platformDigests {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			cfg := NewConfig()
			cfg.Policy = PolicyHistory
			// 1 us voltage ramps (paper: 10 us) so links walk several levels
			// inside the short run and every level's delay is exercised.
			cfg.Link.VoltTransition = sim.Microsecond
			pc.mutate(&cfg)

			p := traffic.NewTwoLevelParams(pc.rate)
			p.CyclePeriod = cfg.RouterPeriod
			p.Seed = 11
			m, err := traffic.NewTwoLevel(p, topology.New(cfg.K, cfg.N, cfg.Torus))
			if err != nil {
				t.Fatal(err)
			}
			tr := traffic.Capture(m, sim.Time(warmup+measure+1)*cfg.RouterPeriod)

			for _, mode := range []struct {
				name   string
				tiles  int
				noskip bool
			}{{"sequential", 0, false}, {"noskip", 0, true}, {"tiles2", 2, false}} {
				c := cfg
				c.Tiles = mode.tiles
				n := mustNew(t, c)
				if mode.noskip {
					useNoSkip(t, n)
				}
				n.Launch(tr, tr.Horizon())
				n.Run(warmup)
				n.BeginMeasurement()
				n.Run(measure)
				snap := fmt.Sprintf("%+v", n.Snapshot())
				if got := fmt.Sprintf("%x", sha256.Sum256([]byte(snap))); got != pc.want {
					t.Errorf("%s: digest %s, want %s\n snapshot: %s", mode.name, got, pc.want, snap)
				}
			}
		})
	}
}
