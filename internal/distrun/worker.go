package distrun

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"time"

	"pselinv/internal/dense"
	"pselinv/internal/obs"
	"pselinv/internal/pselinv"
	"pselinv/internal/simmpi"
	"pselinv/internal/tcptransport"
)

// Environment variables that switch a binary into worker mode. The
// launcher sets both on the child; everything else the worker needs is in
// the spec file.
const (
	EnvSpec = "PSELINV_WORKER_SPEC"
	EnvRank = "PSELINV_WORKER_RANK"
)

// Wire markers for the launcher<->worker stdout protocol. Everything not
// prefixed with one of these is forwarded verbatim to the launcher's
// stderr sink (runtime warnings, stray prints), so the protocol tolerates
// noisy workers.
const (
	addrPrefix   = "PSELINV-ADDR "
	resultPrefix = "PSELINV-RESULT "
	obsPrefix    = "PSELINV-OBS "
)

const (
	// workerClockPings is the number of clock-sync round trips each dialed
	// mesh connection runs during the handshake of an observed run.
	workerClockPings = 8
	// maxObsBytes bounds the encoded telemetry snapshot a worker puts on one
	// stdout line; TrimToSize drops the oldest ring events to fit, which the
	// merged report surfaces as dropped events. Must stay under the
	// launcher's scanner line limit with room for the result line's error
	// snapshots.
	maxObsBytes = 2 << 20
)

// Result is one worker's report, emitted as a single JSON line. The
// volume slices are indexed by simmpi.Class, one entry per class even when
// the worker failed before it counted, and cover only this worker's rank —
// the launcher assembles the per-rank matrices and checks global
// conservation across processes.
type Result struct {
	Rank      int     `json:"rank"`
	SentBytes []int64 `json:"sent_bytes"`
	RecvBytes []int64 `json:"recv_bytes"`
	SentMsgs  []int64 `json:"sent_msgs"`
	RecvMsgs  []int64 `json:"recv_msgs"`
	// DialRetries counts mesh-setup dial attempts that had to back off.
	DialRetries int64 `json:"dial_retries,omitempty"`
	// CheckedBlocks is the number of result blocks this worker verified
	// bitwise against its local in-process reference run (Spec.SelfCheck).
	CheckedBlocks int64 `json:"checked_blocks,omitempty"`
	ElapsedNS     int64 `json:"elapsed_ns"`
	// Error carries the failure, including the engine's hung-run report for
	// timeouts, so the launcher can surface which ranks were stuck where even
	// though the worlds live in separate processes.
	Error string `json:"error,omitempty"`
}

// MaybeWorker turns the current process into a distrun worker when the
// worker environment variables are set, and never returns in that case.
// Call it first thing in main() (and in TestMain for test binaries that
// launch distributed runs): the launcher re-executes the current binary,
// and this hook keeps the child from falling through into the parent's
// flag parsing or test driver.
func MaybeWorker() {
	if os.Getenv(EnvSpec) == "" {
		return
	}
	os.Exit(WorkerMain(os.Stdin, os.Stdout, os.Stderr))
}

// WorkerMain runs one rank of a distributed run: listen, publish the
// address, receive the full address map, connect the mesh, execute the
// rank's program, report counters. It returns the process exit code.
func WorkerMain(stdin io.Reader, stdout, stderr io.Writer) int {
	rank, err := strconv.Atoi(os.Getenv(EnvRank))
	if err != nil {
		fmt.Fprintf(stderr, "distrun worker: bad %s: %v\n", EnvRank, err)
		return 2
	}
	spec, err := ReadSpec(os.Getenv(EnvSpec))
	if err != nil {
		fmt.Fprintf(stderr, "distrun worker: %v\n", err)
		return 2
	}
	res := runWorker(rank, spec, stdin, stdout)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "distrun worker %d: encoding result: %v\n", rank, err)
		return 2
	}
	fmt.Fprintf(stdout, "%s%s\n", resultPrefix, line)
	if res.Error != "" {
		return 1
	}
	return 0
}

// runWorker is the fallible body of WorkerMain; any error lands in the
// Result so the launcher sees it attributed to this rank.
func runWorker(rank int, spec *Spec, stdin io.Reader, stdout io.Writer) Result {
	classes := simmpi.Classes()
	res := Result{Rank: rank, SentBytes: make([]int64, len(classes)), RecvBytes: make([]int64, len(classes)),
		SentMsgs: make([]int64, len(classes)), RecvMsgs: make([]int64, len(classes))}
	fail := func(err error) Result {
		res.Error = err.Error()
		return res
	}
	p := spec.P()
	if rank < 0 || rank >= p {
		return fail(fmt.Errorf("rank %d outside world of %d", rank, p))
	}

	// Phase 1: bind an ephemeral port and publish it before the heavy
	// local build, so the launcher can gather the address map while every
	// worker factorizes in parallel. Peer dials land in the OS accept
	// backlog until Connect below starts accepting.
	ln, err := tcptransport.Listen("127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	defer ln.Close()
	fmt.Fprintf(stdout, "%s%s\n", addrPrefix, ln.Addr())

	pipe, plan, eng, err := spec.Build()
	if err != nil {
		return fail(err)
	}

	// Phase 2: the launcher answers with the complete address map on
	// stdin once all ranks have published.
	var addrs []string
	sc := bufio.NewScanner(stdin)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return fail(fmt.Errorf("reading address map: %w", err))
		}
		return fail(fmt.Errorf("launcher closed stdin before sending address map"))
	}
	if err := json.Unmarshal(sc.Bytes(), &addrs); err != nil {
		return fail(fmt.Errorf("parsing address map: %w", err))
	}
	if len(addrs) != p {
		return fail(fmt.Errorf("address map has %d entries, world size is %d", len(addrs), p))
	}

	// The hello carries the factorization's element tag, so a world whose
	// processes disagree about real-vs-complex (divergent specs) dies at
	// the handshake instead of mixing payload arithmetic.
	cfg := tcptransport.Config{Rank: rank, Addrs: addrs, Elem: byte(pipe.LU.Elem)}
	// Observability: the collector and the transport clock sync share one
	// epoch, so every local timestamp lives on the same process clock and
	// the launcher can shift this whole process by a single estimated offset
	// when merging.
	if spec.Obs {
		epoch := time.Now()
		eng.Obs = obs.NewCollector(plan.PerRankMsgs(), epoch)
		eng.Obs.SetTopology(spec.CoresPerNode)
		cfg.ClockSyncPings = workerClockPings
		cfg.ClockEpoch = epoch
	}

	tr, err := ln.Connect(cfg)
	if err != nil {
		return fail(fmt.Errorf("connecting mesh: %w", err))
	}
	world := simmpi.NewWorldOn(tr)
	defer world.Close()

	start := time.Now()
	runRes, err := eng.RunWorld(world, spec.Timeout())
	res.ElapsedNS = time.Since(start).Nanoseconds()
	for i, c := range classes {
		res.SentBytes[i] = world.SentBytes(rank, c)
		res.RecvBytes[i] = world.RecvBytes(rank, c)
		res.SentMsgs[i] = world.SentMsgs(rank, c)
		res.RecvMsgs[i] = world.RecvMsgs(rank, c)
	}
	res.DialRetries = tr.DialRetries()
	if err != nil {
		// A timeout's error carries the engine's hung-run report (rank
		// states, messages in flight). An observed run appends the tail of
		// its event ring: the last messages this rank actually saw.
		if eng.Obs != nil {
			err = fmt.Errorf("%w\n%s", err, eng.Obs.EncodeRank(rank).TailString(16))
		}
		return fail(err)
	}
	if runRes != nil {
		if spec.SelfCheck {
			n, err := selfCheck(rank, spec, eng, runRes)
			if err != nil {
				runRes.Release()
				return fail(err)
			}
			res.CheckedBlocks = n
		}
		runRes.Release()
		if eng.Obs != nil {
			emitSnapshot(stdout, runRes.Snapshots[0], tr)
		}
	}
	return res
}

// selfCheck re-runs the worker's engine — same plan, same factorization —
// on the in-process transport and compares every result block the rank
// gathered word-for-word (math.Float64bits): the reductions fold in a fixed
// per-plan order, so the transport must not change a bit. On a distributed
// transport the gathered result holds exactly this rank's share, so the
// union of all workers' checks covers the full selected inverse.
func selfCheck(rank int, spec *Spec, eng *pselinv.Engine, runRes *pselinv.RunResult) (int64, error) {
	ref, err := eng.Rebind(eng.LU).Run(spec.Timeout())
	if err != nil {
		return 0, fmt.Errorf("rank %d: in-process reference run: %w", rank, err)
	}
	defer ref.Release()
	var checked int64
	var checkErr error
	runRes.Ainv.Range(func(i, j int, got *dense.Matrix) {
		if checkErr != nil {
			return
		}
		want, ok := ref.Ainv.Get(i, j)
		if !ok {
			checkErr = fmt.Errorf("rank %d: block (%d,%d) absent from the in-process reference", rank, i, j)
			return
		}
		if got.Elem != want.Elem || len(got.Data) != len(want.Data) {
			checkErr = fmt.Errorf("rank %d: block (%d,%d) shape/element mismatch vs in-process reference", rank, i, j)
			return
		}
		for w := range got.Data {
			if math.Float64bits(got.Data[w]) != math.Float64bits(want.Data[w]) {
				checkErr = fmt.Errorf("rank %d: block (%d,%d) word %d differs from in-process reference: %x vs %x",
					rank, i, j, w, math.Float64bits(got.Data[w]), math.Float64bits(want.Data[w]))
				return
			}
		}
		checked++
	})
	return checked, checkErr
}

// emitSnapshot adds this process's clock measurements to the snapshot the
// engine emitted for its one local rank and streams it to the launcher as
// one bounded stdout line, ahead of the result line. A snapshot that fails
// to encode is dropped (telemetry must not fail the run); the launcher then
// reports the missing rank at merge time.
func emitSnapshot(stdout io.Writer, snap *obs.Snapshot, tr *tcptransport.Transport) {
	for _, m := range tr.ClockOffsets() {
		snap.Clock = append(snap.Clock, obs.ClockMeasurement{
			Peer: m.Peer, OffsetNS: m.OffsetNS, UncNS: m.UncNS, RTTNS: m.RTTNS,
		})
	}
	data, err := snap.TrimToSize(maxObsBytes)
	if err != nil {
		return
	}
	fmt.Fprintf(stdout, "%s%s\n", obsPrefix, data)
}
