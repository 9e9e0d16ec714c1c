package pselinv_test

// The chaos sweep runner: it executes an engine once unperturbed to establish
// the plan's baseline, then once per seed under a chaos adversary, asserting
// that every perturbed run reproduces the baseline bit for bit and conserves
// communication volume. A failing seed is reported with the full deadlock
// snapshot so it reproduces from its ID alone.

import (
	"fmt"
	"math"
	"testing"
	"time"

	"pselinv/internal/blockmat"
	"pselinv/internal/chaos"
	"pselinv/internal/dense"
	"pselinv/internal/pselinv"
	"pselinv/internal/simmpi"
)

// snapshotBlocks copies a run's A⁻¹ blocks into plain slices so the arena
// can recycle the originals.
func snapshotBlocks(res *pselinv.RunResult) map[blockmat.Key][]float64 {
	out := map[blockmat.Key][]float64{}
	res.Ainv.Range(func(key blockmat.Key, b *dense.Matrix) {
		out[key] = append([]float64(nil), b.Data...)
	})
	return out
}

// compareExact asserts bitwise equality of a run against the baseline.
// Returns a description of the first mismatch, or "".
func compareExact(base map[blockmat.Key][]float64, res *pselinv.RunResult) string {
	mismatch := ""
	n := 0
	res.Ainv.Range(func(key blockmat.Key, b *dense.Matrix) {
		n++
		if mismatch != "" {
			return
		}
		want, ok := base[key]
		if !ok {
			mismatch = fmt.Sprintf("unexpected block (%d,%d)", key.I, key.J)
			return
		}
		if len(want) != len(b.Data) {
			mismatch = fmt.Sprintf("block (%d,%d): %d entries, want %d", key.I, key.J, len(b.Data), len(want))
			return
		}
		for x, v := range b.Data {
			if math.Float64bits(v) != math.Float64bits(want[x]) {
				mismatch = fmt.Sprintf("block (%d,%d) entry %d: %g != %g (bit-exact compare)",
					key.I, key.J, x, v, want[x])
				return
			}
		}
	})
	if mismatch == "" && n != len(base) {
		mismatch = fmt.Sprintf("%d blocks computed, want %d", n, len(base))
	}
	return mismatch
}

// chaosSweep runs eng once unperturbed (twice, actually: the baseline is rerun
// to prove the engine really is scheduling-independent before any adversary
// is blamed), then once per seed under the cfg adversary. Every world —
// baseline and perturbed — must pass CheckConservation, and every perturbed
// result must equal the baseline element-exactly. cfg.Seed is overwritten
// by each sweep seed; the engine's own Chaos field is ignored and left
// untouched.
func chaosSweep(tb testing.TB, eng *pselinv.Engine, cfg chaos.Config, seeds []uint64, timeout time.Duration) {
	tb.Helper()
	savedChaos := eng.Chaos
	eng.Chaos = nil
	defer func() { eng.Chaos = savedChaos }()

	runOnce := func(label string, adv *chaos.Config) (map[blockmat.Key][]float64, *simmpi.World) {
		world := simmpi.NewWorld(eng.Plan.Grid.Size())
		if adv != nil {
			chaos.Install(*adv, world)
		}
		res, err := eng.RunWorld(world, timeout)
		if err != nil {
			rep := chaos.Snapshot(world, eng.Plan, err)
			world.Close()
			tb.Fatalf("chaos sweep %s: %v\n%s", label, err, rep)
		}
		if err := world.CheckConservation(); err != nil {
			tb.Fatalf("chaos sweep %s: %v", label, err)
		}
		snap := snapshotBlocks(res)
		res.Release()
		return snap, world
	}

	base, _ := runOnce("baseline", nil)
	rerun, _ := runOnce("baseline-rerun", nil)
	if diff := diffSnaps(base, rerun); diff != "" {
		tb.Fatalf("chaos sweep: the engine is not scheduling-independent; baseline rerun differs: %s", diff)
	}

	for _, seed := range seeds {
		c := cfg
		c.Seed = seed
		world := simmpi.NewWorld(eng.Plan.Grid.Size())
		chaos.Install(c, world)
		res, err := eng.RunWorld(world, timeout)
		if err != nil {
			rep := chaos.Snapshot(world, eng.Plan, err)
			world.Close()
			tb.Fatalf("chaos seed %d: %v\n%s", seed, err, rep)
			return
		}
		if cerr := world.CheckConservation(); cerr != nil {
			tb.Fatalf("chaos seed %d: %v", seed, cerr)
		}
		if mismatch := compareExact(base, res); mismatch != "" {
			tb.Fatalf("chaos seed %d: result differs from unperturbed baseline: %s", seed, mismatch)
		}
		res.Release()
	}
	tb.Logf("chaos sweep: %d seeds bit-exact vs baseline at P=%d", len(seeds), eng.Plan.Grid.Size())
}

// diffSnaps compares two block snapshots bitwise.
func diffSnaps(a, b map[blockmat.Key][]float64) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d blocks vs %d", len(a), len(b))
	}
	for key, av := range a {
		bv, ok := b[key]
		if !ok {
			return fmt.Sprintf("block (%d,%d) missing", key.I, key.J)
		}
		for x := range av {
			if math.Float64bits(av[x]) != math.Float64bits(bv[x]) {
				return fmt.Sprintf("block (%d,%d) entry %d", key.I, key.J, x)
			}
		}
	}
	return ""
}

// seedRange returns the deterministic seed list [base, base+n).
func seedRange(base uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = base + uint64(i)
	}
	return out
}
