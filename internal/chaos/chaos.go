// Package chaos is a seeded, deterministic delivery adversary for
// simmpi.World: it perturbs message delivery order within bounded per-link
// reorder windows, skews delays with the netsim latency profile, probes the
// substrate for message duplication, and injects rank stalls and crashes.
// It is a test tool: tests install it on a world they build (Install) and
// run the engine there (pselinv.Engine.RunWorld), whose timeout error then
// carries the hung-run report.
//
// The adversary is deterministic per link: each (src, dst) link numbers its
// messages with a serial at send time, and every decision the adversary
// makes about a message is a pure function of (Seed, src, dst, serial).
// Re-running with the same seed therefore applies the same perturbation to
// the same messages even though the global goroutine interleaving differs
// run to run. That is the property a delivery-order test needs: a failing
// seed reproduces from its ID alone.
//
// What it does NOT simulate: bandwidth contention, message corruption, or
// partial delivery — the payload either arrives intact, is dropped whole
// (visible to CheckConservation), or the receiving rank is stalled/crashed.
package chaos

import (
	"fmt"
	"sync/atomic"
	"time"

	"pselinv/internal/netsim"
	"pselinv/internal/simmpi"
)

// DefaultReorderWindow bounds how far from the FIFO head the adversary may
// reach when picking the next delivery.
const DefaultReorderWindow = 8

// DefaultMaxHold bounds how many consecutive deliveries may bypass the
// head-of-line message before it is forced through, guaranteeing progress
// under a sustained stream of low-delay arrivals.
const DefaultMaxHold = 32

// Config parameterizes the adversary. The zero value (plus a Seed) gives
// pure reorder chaos with the default window; the injection knobs are
// opt-in. The duplicate-delivery probe is always on: Delivered panics if the
// same (src, serial) message ever reaches a rank twice — a duplication bug
// in the mailbox substrate itself.
type Config struct {
	// Seed drives every delivery decision. Two runs over the same message
	// sequence with the same seed perturb identically.
	Seed uint64
	// ReorderWindow is the number of queued messages (from the FIFO head)
	// eligible for delivery at each receive; 0 means DefaultReorderWindow.
	// 1 degenerates to faithful FIFO.
	ReorderWindow int
	// MaxHold caps consecutive bypasses of the head-of-line message;
	// 0 means DefaultMaxHold.
	MaxHold int
	// Net, when set, skews per-message delays by the simulated network's
	// per-link latency inhomogeneity (Params.Latency), so links the
	// scaling simulator considers slow are also the ones the adversary
	// holds back longest.
	Net *netsim.Params
	// StallRank, when >= 0, injects a stall: that rank sleeps StallDelay
	// on every StallEvery-th delivery it receives.
	StallRank  int
	StallEvery int
	StallDelay time.Duration
	// CrashRank/CrashAfter, when CrashAfter > 0, crash that rank (panic
	// with a *Crash) upon receiving its CrashAfter-th message.
	CrashRank  int
	CrashAfter int64
	// Drop, when set, discards any eligible message for which it returns
	// true; the sent-but-unreceived bytes then fail CheckConservation.
	Drop func(msg *simmpi.Message) bool
}

// withDefaults fills the zero-value knobs.
func (c Config) withDefaults() Config {
	if c.ReorderWindow == 0 {
		c.ReorderWindow = DefaultReorderWindow
	}
	if c.MaxHold == 0 {
		c.MaxHold = DefaultMaxHold
	}
	if c.StallEvery == 0 {
		c.StallEvery = 1
	}
	return c
}

// Crash is the panic value of an injected rank crash, so tests (and the
// hung-run report) can tell injected crashes from genuine bugs.
type Crash struct {
	Rank  int
	After int64
}

// Error describes the injected crash.
func (c *Crash) Error() string {
	return fmt.Sprintf("chaos: injected crash of rank %d after %d deliveries", c.Rank, c.After)
}

// dstState is the adversary's per-destination bookkeeping. Pick and
// Delivered for one destination only ever run on that rank's goroutine, but
// the counters are atomics so a deadlock report can read them while stalled
// ranks are still asleep.
type dstState struct {
	delivered int64 // atomic
	// head-of-line tracking for the MaxHold progress bound
	holdSrc    int
	holdSerial uint64
	holds      int
	// seen[src] marks delivered serials (the duplicate-delivery probe)
	seen []map[uint64]bool
}

// Adversary implements simmpi.Adversary. One instance serves one World.Run
// (its counters are run state); build a fresh one per world via New.
type Adversary struct {
	cfg Config
	p   int
	dst []dstState
}

var _ simmpi.Adversary = (*Adversary)(nil)

// New builds an adversary for a world of p ranks.
func New(cfg Config, p int) *Adversary {
	a := &Adversary{cfg: cfg.withDefaults(), p: p, dst: make([]dstState, p)}
	for i := range a.dst {
		a.dst[i].holdSrc = -1
		a.dst[i].seen = make([]map[uint64]bool, p)
	}
	return a
}

// Install builds an adversary from cfg and installs it on w.
func Install(cfg Config, w *simmpi.World) *Adversary {
	a := New(cfg, w.P)
	w.SetAdversary(a)
	return a
}

// delay maps a message to its deterministic hold score in [0, window).
// With Net set, the score is additionally scaled by the link's simulated
// latency relative to the base inter-node latency, so slow links reorder
// harder.
func (a *Adversary) delay(msg *simmpi.Message) float64 {
	u := unit(a.cfg.Seed, msg.Src, msg.Dst, msg.Serial)
	scale := 1.0
	if a.cfg.Net != nil && a.cfg.Net.InterLatency > 0 {
		scale = a.cfg.Net.Latency(msg.Src, msg.Dst) / a.cfg.Net.InterLatency
		if scale > 4 {
			scale = 4
		}
	}
	return u * float64(a.cfg.ReorderWindow) * scale
}

// Pick chooses the next delivery for dst: within the reorder window, the
// message whose FIFO position plus deterministic delay is smallest. The
// position term guarantees every message's score decays to its bounded
// delay as the queue drains; the MaxHold counter forces the head through
// after too many bypasses, so no message is starved forever.
func (a *Adversary) Pick(dst int, pending []simmpi.Message) (int, bool) {
	st := &a.dst[dst]
	n := len(pending)
	win := a.cfg.ReorderWindow
	if n < win {
		win = n
	}
	if a.cfg.Drop != nil {
		for i := 0; i < win; i++ {
			if a.cfg.Drop(&pending[i]) {
				st.noteBypass(pending, i)
				return i, true
			}
		}
	}
	best, bestScore := 0, 0.0
	for i := 0; i < win; i++ {
		score := float64(i) + a.delay(&pending[i])
		if i == 0 || score < bestScore {
			best, bestScore = i, score
		}
	}
	head := &pending[0]
	if best != 0 && head.Src == st.holdSrc && head.Serial == st.holdSerial && st.holds >= a.cfg.MaxHold {
		best = 0
	}
	st.noteBypass(pending, best)
	return best, false
}

// noteBypass updates the head-of-line hold counter after position idx was
// chosen.
func (st *dstState) noteBypass(pending []simmpi.Message, idx int) {
	if idx == 0 {
		st.holdSrc, st.holds = -1, 0
		return
	}
	head := &pending[0]
	if head.Src == st.holdSrc && head.Serial == st.holdSerial {
		st.holds++
	} else {
		st.holdSrc, st.holdSerial, st.holds = head.Src, head.Serial, 1
	}
}

// Delivered runs the injection probes on the receiving rank's goroutine:
// duplicate detection, stall sleeps, and crash panics.
func (a *Adversary) Delivered(dst int, msg *simmpi.Message) {
	st := &a.dst[dst]
	n := atomic.AddInt64(&st.delivered, 1)
	m := st.seen[msg.Src]
	if m == nil {
		m = make(map[uint64]bool)
		st.seen[msg.Src] = m
	}
	if m[msg.Serial] {
		panic(fmt.Sprintf("chaos: duplicate delivery to rank %d: src=%d serial=%d tag=%#x",
			dst, msg.Src, msg.Serial, msg.Tag))
	}
	m[msg.Serial] = true
	if a.cfg.StallDelay > 0 && dst == a.cfg.StallRank && n%int64(a.cfg.StallEvery) == 0 {
		time.Sleep(a.cfg.StallDelay)
	}
	if a.cfg.CrashAfter > 0 && dst == a.cfg.CrashRank && n == a.cfg.CrashAfter {
		panic(&Crash{Rank: dst, After: n})
	}
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps (seed, src, dst, serial) to [0, 1) deterministically.
func unit(seed uint64, src, dst int, serial uint64) float64 {
	h := splitmix64(seed ^ splitmix64(uint64(uint32(src))<<32|uint64(uint32(dst))) ^ splitmix64(serial))
	return float64(h>>11) / float64(1<<53)
}
