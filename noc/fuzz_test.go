package noc

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadConfig: whatever the file holds, LoadConfig returns a config or
// an error — it never panics and never hangs — and a config it accepts is
// one the simulator can actually run: platforms of up to 256 nodes are
// built and driven through 200 cycles of uniform traffic.
func FuzzLoadConfig(f *testing.F) {
	dir := f.TempDir()
	saved := func(c Config) []byte {
		path := filepath.Join(dir, "seed.json")
		if err := SaveConfig(path, c); err != nil {
			f.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(saved(DefaultConfig()))
	f.Add([]byte(`{"MeshSize": 4}`))
	// The three unroutable platforms Validate refuses, and the mesh whose
	// node count used to pass it and then try to build 2^40 routers.
	for _, mutate := range []func(*Config){
		func(c *Config) { c.Routing, c.Torus = "adaptive", true },
		func(c *Config) { c.Routing, c.VCs = "adaptive", 1 },
		func(c *Config) { c.Torus, c.VCs = true, 1 },
	} {
		c := DefaultConfig()
		mutate(&c)
		f.Add(saved(c))
	}
	f.Add([]byte(`{"MeshSize": 1048576}`))
	f.Add([]byte(`{"MeshSize": 2, "Dims": 70}`))
	f.Add([]byte(`{"MeshSize": 4, "BufPerPort": 1000000000000, "PipelineDepth": 1000000000}`))
	// A misspelt key is an error, not a silent run of the 8x8 default.
	f.Add([]byte(`{"MeshSzie": 4}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "cfg.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := LoadConfig(path)
		if err != nil {
			return
		}
		nodes := 1
		for i := 0; i < c.Dims && nodes <= 256; i++ {
			nodes *= c.MeshSize
		}
		if nodes > 256 {
			return
		}
		// Live traffic models need the single-scheduler engine (a tiled
		// network replays recorded traces only, and says so by panicking).
		c.Tiles = 0
		n, err := New(c)
		if err != nil {
			t.Fatalf("LoadConfig accepted a config New rejects: %v\n%s", err, data)
		}
		n.AttachUniform(0.1)
		n.Measure(200)
	})
}
