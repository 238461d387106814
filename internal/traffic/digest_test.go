package traffic

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// TestTwoLevelTraceDigests pins the exact bytes of captured two-level
// workloads: the SHA-256 of the encoded trace for the paper's rate and
// session-length range and for the parameters the defaults do not exercise.
// Any change to the generator's draw order, event order or arithmetic moves
// a digest; a faster generator must leave every one of them in place.
func TestTwoLevelTraceDigests(t *testing.T) {
	mesh, torus := topology.NewMesh2D(8), topology.New(4, 2, true)
	type tc struct {
		name    string
		rate    float64
		dur     sim.Duration
		mutate  func(*TwoLevelParams)
		topo    *topology.Cube
		horizon sim.Time
		want    string
	}
	cases := []tc{
		{"r0.05/10us", 0.05, 10 * sim.Microsecond, nil, mesh, 30 * sim.Microsecond, "ce2be219101dde26c55d4457b02b618b94fdedc6822bc6da853c2e118d8a9072"},
		{"r0.05/100us", 0.05, 100 * sim.Microsecond, nil, mesh, 30 * sim.Microsecond, "734ae82141375a28722df65ebcc3f0374e52248ffc150883ae3586e9d496e58a"},
		{"r0.05/1ms", 0.05, sim.Millisecond, nil, mesh, 30 * sim.Microsecond, "c9bb8e59918a18ecb48044f22eb1a40ef4c77b08b7f95a4326344c2107cebba4"},
		{"r0.3/10us", 0.3, 10 * sim.Microsecond, nil, mesh, 20 * sim.Microsecond, "912124b296a6d2f58d2b5a3773d7585449c53cccbc988f695c759b5b4e5bfe24"},
		{"r0.3/100us", 0.3, 100 * sim.Microsecond, nil, mesh, 20 * sim.Microsecond, "e0dc4d91473b1526075b0f746ce73676b40ea96a8bdaf02f1643f120c7cc9e5f"},
		{"r0.3/1ms", 0.3, sim.Millisecond, nil, mesh, 20 * sim.Microsecond, "bc979dac132a44a084efec314f192960b0dd4eb23ebe8f04863026c863096c12"},
		{"r1/10us", 1.0, 10 * sim.Microsecond, nil, mesh, 10 * sim.Microsecond, "d1c8c7c4fd0f960c6fff5383f28a3e9a0eff6d467f481fe15e0e7aaf5780fda0"},
		{"r1/100us", 1.0, 100 * sim.Microsecond, nil, mesh, 10 * sim.Microsecond, "0f1081ba01b97d103db43ec8db34db38a88cb207de14ec5be93b97aa57f719ef"},
		{"r1/1ms", 1.0, sim.Millisecond, nil, mesh, 10 * sim.Microsecond, "fe77e86fe1fb72fc64f456325ede14cd3a299b4fc4bdea5bfb00fad200816172"},
		{"r4/10us", 4.0, 10 * sim.Microsecond, nil, mesh, 5 * sim.Microsecond, "18e832f115026a3441fc35450e9b0dccdd9fba3285d34cca4e33cc34b86ffa04"},
		{"r4/100us", 4.0, 100 * sim.Microsecond, nil, mesh, 5 * sim.Microsecond, "2a09152ada47120722b4c153f45681385fbf10d90720fee1d88108a8e91b66ad"},
		{"r4/1ms", 4.0, sim.Millisecond, nil, mesh, 5 * sim.Microsecond, "c430b6555113a3905e2b796ee50f8e77b85008a48885c8fae797a175bfb2b98e"},
		{"spt128", 1.0, 50 * sim.Microsecond, func(p *TwoLevelParams) { p.SourcesPerTask = 128 }, mesh, 10 * sim.Microsecond, "088771b8ab4c887d2e135ad8b98eb7e037aacc12ae9bc137f1777ecaa3b76236"},
		{"torus4x4", 0.5, 20 * sim.Microsecond, nil, torus, 20 * sim.Microsecond, "8bf124795a0c14f884b668d981efc273c5944ea2e4c00ff246ca02109f0ba540"},
		{"nojitter", 1.0, 50 * sim.Microsecond, func(p *TwoLevelParams) { p.RateJitter = 0 }, mesh, 10 * sim.Microsecond, "883ff6c5305223cd714aa26042034153ce45ed3a8dc05d4c9a9a3394ec7d9e24"},
		{"seed2", 1.0, 50 * sim.Microsecond, func(p *TwoLevelParams) { p.Seed = 2 }, mesh, 10 * sim.Microsecond, "51f385945c8d181523e961dc3a6470a1ce2827545c86251cc7842597bf9e7033"},
		{"seed987654321", 0.3, 10 * sim.Microsecond, func(p *TwoLevelParams) { p.Seed = 987654321 }, mesh, 20 * sim.Microsecond, "bd79dc14b5f85071b0387db206c72ca18625efdfda10625835f1c45f982af83d"},
		{"tasks50", 1.0, 20 * sim.Microsecond, func(p *TwoLevelParams) { p.AvgTasks = 50 }, mesh, 10 * sim.Microsecond, "38d035b7e9fbe1f3f3bc4aceaa9889c578559629851f97f416810f7ec28da854"},
		// An odd horizon far inside 1 ms sessions and microsecond-scale ON
		// periods: almost every session and many ON periods are clamped.
		{"clamped-mid-on", 2.0, sim.Millisecond, nil, mesh, 3*sim.Microsecond + 333_333, "3d0d08d68fd25485df645b014a30a6e72e6150d189e191ea86e4c4a335e99383"},
		{"zero-horizon", 1.0, sim.Millisecond, nil, mesh, 0, "4e41f0349a5d5a0be1dc5b24485aad1f049aab627820e810d2b3eb9ceb559a7d"},
	}
	for _, c := range cases {
		p := NewTwoLevelParams(c.rate)
		p.AvgTaskDuration = c.dur
		if c.mutate != nil {
			c.mutate(&p)
		}
		m, err := NewTwoLevel(p, c.topo)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		tr := Capture(m, c.horizon)
		sum := sha256.Sum256(tr.Encoded().Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: %d arrivals, digest %s, want %s", c.name, tr.Len(), got, c.want)
		}
	}
}
