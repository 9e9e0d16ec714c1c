package distrun

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"

	"pselinv/internal/core"
	"pselinv/internal/exp"
	"pselinv/internal/obs"
	"pselinv/internal/simmpi"
	"pselinv/internal/sparse"
	"pselinv/internal/stats"
)

// Options tunes how the launcher spawns workers.
type Options struct {
	// Stderr receives the workers' stderr and any unrecognized stdout
	// lines. Default os.Stderr.
	Stderr io.Writer
	// SetupTimeout bounds the address-exchange phase (spawn → every rank
	// published its listen address). Default 60s.
	SetupTimeout time.Duration
}

func (o *Options) stderr() io.Writer {
	if o != nil && o.Stderr != nil {
		return o.Stderr
	}
	return os.Stderr
}

func (o *Options) setupTimeout() time.Duration {
	if o != nil && o.SetupTimeout > 0 {
		return o.SetupTimeout
	}
	return 60 * time.Second
}

// Outcome aggregates one distributed run: each rank's Result in rank
// order, with the slowest worker's parallel-section time as the run's
// elapsed time.
type Outcome struct {
	Results []Result
	Elapsed time.Duration
	// Snapshots holds each rank's telemetry snapshot on observed runs
	// (Spec.Obs), rank-indexed; nil entries mark ranks whose snapshot was
	// lost or trimmed away entirely. Empty on unobserved runs.
	Snapshots []*obs.Snapshot
}

// SentBytes assembles the per-rank sent-byte vector for one class — the
// distributed equivalent of simmpi.World.VolumeVector(class, true).
func (o *Outcome) SentBytes(class simmpi.Class) []int64 {
	out := make([]int64, len(o.Results))
	for r, res := range o.Results {
		out[r] = res.SentBytes[class]
	}
	return out
}

// RecvBytes assembles the per-rank received-byte vector for one class.
func (o *Outcome) RecvBytes(class simmpi.Class) []int64 {
	out := make([]int64, len(o.Results))
	for r, res := range o.Results {
		out[r] = res.RecvBytes[class]
	}
	return out
}

// TotalSent sums one rank's sent bytes across classes.
func (o *Outcome) TotalSent(rank int) int64 {
	var total int64
	for _, b := range o.Results[rank].SentBytes {
		total += b
	}
	return total
}

// checkConservation verifies that globally, per class, bytes and message
// counts sent equal those received. Within one process the mailbox
// structure makes this nearly tautological; across processes it certifies
// the TCP framing and barrier shutdown lost nothing.
func (o *Outcome) checkConservation() error {
	for i, c := range simmpi.Classes() {
		var sentB, recvB, sentM, recvM int64
		for _, res := range o.Results {
			sentB += res.SentBytes[i]
			recvB += res.RecvBytes[i]
			sentM += res.SentMsgs[i]
			recvM += res.RecvMsgs[i]
		}
		if sentB != recvB || sentM != recvM {
			return fmt.Errorf("distrun: conservation violated for class %v: sent %d bytes/%d msgs, received %d bytes/%d msgs",
				c, sentB, sentM, recvB, recvM)
		}
	}
	return nil
}

// ResultError reports a result line the launcher cannot use: not a Result,
// another rank's, or per-class counters not one per simmpi class.
type ResultError struct {
	Rank   int
	Reason string
}

func (e *ResultError) Error() string {
	return fmt.Sprintf("distrun: rank %d sent a malformed result: %s", e.Rank, e.Reason)
}

// decodeResult decodes and validates rank's result line, so that every
// Outcome method may index a per-class vector by class.
func decodeResult(rank int, line []byte) (Result, error) {
	var res Result
	if err := json.Unmarshal(line, &res); err != nil {
		return res, &ResultError{Rank: rank, Reason: err.Error()}
	}
	if res.Rank != rank {
		return res, &ResultError{Rank: rank, Reason: fmt.Sprintf("it reports itself as rank %d", res.Rank)}
	}
	if nc := len(simmpi.Classes()); len(res.SentBytes) != nc || len(res.RecvBytes) != nc || len(res.SentMsgs) != nc || len(res.RecvMsgs) != nc {
		return res, &ResultError{Rank: rank, Reason: fmt.Sprintf("sent/received byte/message counters of %d/%d/%d/%d classes, want %d",
			len(res.SentBytes), len(res.RecvBytes), len(res.SentMsgs), len(res.RecvMsgs), nc)}
	}
	return res, nil
}

// launchedWorker is the launcher's handle on one rank's process.
type launchedWorker struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	addrCh chan string
	resCh  chan []byte // the JSON of the worker's result line
	obsCh  chan *obs.Snapshot
	scanCh chan error // scanner goroutine exit status
}

// Launch runs the spec across P() worker processes on localhost and
// aggregates their results. The spec (and the matrix it references) must
// already be on disk; use StageMatrix/WriteSpec, or MeasureVolumes /
// MeasureObs for the end-to-end convenience path. On worker failure the returned error
// includes every failing rank's message — for timeouts that embeds the
// worker's in-flight snapshot.
func Launch(specPath string, spec *Spec, opts *Options) (*Outcome, error) {
	p := spec.P()
	if p <= 0 {
		return nil, fmt.Errorf("distrun: empty world (%dx%d grid)", spec.PR, spec.PC)
	}
	// Every worker is a re-execution of the current binary, whose main (or
	// TestMain) starts with MaybeWorker.
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("distrun: resolving worker binary: %w", err)
	}
	errSink := opts.stderr()

	workers := make([]*launchedWorker, p)
	defer func() {
		for _, w := range workers {
			if w == nil || w.cmd.Process == nil {
				continue
			}
			w.cmd.Process.Kill()
			w.cmd.Wait()
		}
	}()
	for r := 0; r < p; r++ {
		w, err := spawnWorker(exe, specPath, r, errSink)
		if err != nil {
			return nil, fmt.Errorf("distrun: spawning rank %d: %w", r, err)
		}
		workers[r] = w
	}

	// Phase 1: gather every rank's listen address.
	addrs := make([]string, p)
	setupDeadline := time.After(opts.setupTimeout())
	for r, w := range workers {
		select {
		case addr, ok := <-w.addrCh:
			if !ok {
				return nil, fmt.Errorf("distrun: rank %d exited before publishing its address", r)
			}
			addrs[r] = addr
		case <-setupDeadline:
			return nil, fmt.Errorf("distrun: rank %d did not publish an address within %v", r, opts.setupTimeout())
		}
	}

	// Phase 2: broadcast the complete map; each worker then meshes up
	// peer-to-peer without further launcher involvement.
	addrLine, err := json.Marshal(addrs)
	if err != nil {
		return nil, err
	}
	// A worker whose local build failed exits without reading the map; its
	// result line carries the reason, so a failed write is reported only
	// when phase 3 finds no worker to blame.
	var sendErr error
	for r, w := range workers {
		if _, err := fmt.Fprintf(w.stdin, "%s\n", addrLine); err != nil && sendErr == nil {
			sendErr = fmt.Errorf("distrun: sending address map to rank %d: %w", r, err)
		}
		w.stdin.Close()
	}

	// Phase 3: collect results. Workers enforce the engine timeout
	// themselves; the launcher allows setup slack on top before declaring
	// a worker lost.
	outcome := &Outcome{Results: make([]Result, p)}
	if spec.Obs {
		outcome.Snapshots = make([]*obs.Snapshot, p)
	}
	resultDeadline := time.After(spec.Timeout() + opts.setupTimeout())
	var failures []string
	for r, w := range workers {
		select {
		case line, ok := <-w.resCh:
			if !ok {
				werr := w.cmd.Wait()
				workers[r] = nil
				return nil, fmt.Errorf("distrun: rank %d exited without a result (%v)", r, werr)
			}
			res, err := decodeResult(r, line)
			if err != nil {
				return nil, err
			}
			outcome.Results[r] = res
			if spec.Obs {
				// A worker writes its obs line before its result line, so by
				// the time the result arrived the snapshot (if any) is
				// already buffered.
				select {
				case snap := <-w.obsCh:
					outcome.Snapshots[r] = snap
				default:
				}
			}
			if res.Error != "" {
				failures = append(failures, fmt.Sprintf("rank %d: %s", r, res.Error))
			}
			if e := time.Duration(res.ElapsedNS); e > outcome.Elapsed {
				outcome.Elapsed = e
			}
		case <-resultDeadline:
			return nil, fmt.Errorf("distrun: rank %d produced no result within %v of the engine deadline",
				r, opts.setupTimeout())
		}
	}
	for r, w := range workers {
		err := w.cmd.Wait()
		workers[r] = nil
		if err != nil && outcome.Results[r].Error == "" {
			failures = append(failures, fmt.Sprintf("rank %d: process: %v", r, err))
		}
	}
	if len(failures) > 0 {
		return outcome, fmt.Errorf("distrun: %d of %d ranks failed:\n%s", len(failures), p, strings.Join(failures, "\n"))
	}
	if sendErr != nil {
		return outcome, sendErr
	}
	if err := outcome.checkConservation(); err != nil {
		return outcome, err
	}
	return outcome, nil
}

// spawnWorker starts one rank's process and its stdout demultiplexer.
func spawnWorker(exe, specPath string, rank int, errSink io.Writer) (*launchedWorker, error) {
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		EnvSpec+"="+specPath,
		fmt.Sprintf("%s=%d", EnvRank, rank),
	)
	cmd.Stderr = errSink
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	w := &launchedWorker{
		cmd:    cmd,
		stdin:  stdin,
		addrCh: make(chan string, 1),
		resCh:  make(chan []byte, 1),
		obsCh:  make(chan *obs.Snapshot, 1),
		scanCh: make(chan error, 1),
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		// Timeout snapshots in result errors can run long; give the
		// scanner room well beyond the default 64KB line limit.
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, addrPrefix):
				w.addrCh <- strings.TrimSpace(line[len(addrPrefix):])
			case strings.HasPrefix(line, resultPrefix):
				w.resCh <- []byte(line[len(resultPrefix):])
			case strings.HasPrefix(line, obsPrefix):
				snap, err := obs.UnmarshalSnapshot([]byte(line[len(obsPrefix):]))
				if err != nil {
					fmt.Fprintf(errSink, "distrun: rank %d: bad obs line: %v\n", rank, err)
					continue
				}
				w.obsCh <- snap
			default:
				fmt.Fprintln(errSink, line)
			}
		}
		close(w.addrCh)
		close(w.resCh)
		w.scanCh <- sc.Err()
	}()
	return w, nil
}

// launchPerScheme stages gen on disk and runs one distributed launch per
// scheme (base supplies everything but the scheme: grid, seeds,
// amalgamation, timeout and obs options), handing each outcome to
// each.
func launchPerScheme(gen *sparse.Generated, base Spec, schemes []core.Scheme, opts *Options, each func(core.Scheme, *Outcome) error) error {
	dir, err := os.MkdirTemp("", "distrun-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	staged, err := StageMatrix(dir, gen)
	if err != nil {
		return err
	}
	base.MatrixFile, base.MatrixName, base.Geom = staged.MatrixFile, staged.MatrixName, staged.Geom
	for _, scheme := range schemes {
		spec := base
		spec.Scheme = scheme
		specPath, err := WriteSpec(dir, &spec)
		if err != nil {
			return err
		}
		outcome, err := Launch(specPath, &spec, opts)
		if err == nil {
			err = each(scheme, outcome)
		}
		if err != nil {
			return fmt.Errorf("distrun: %v on %dx%d: %w", scheme, spec.PR, spec.PC, err)
		}
	}
	return nil
}

// MeasureVolumes runs base once per scheme across OS processes and reduces
// the workers' counters to the per-rank MB vectors exp.PlanVolumes derives
// from the plan. Byte counting is transport-invariant, so for a given
// matrix, grid and seed the two agree exactly (the cross-backend goldens).
func MeasureVolumes(gen *sparse.Generated, base Spec, schemes []core.Scheme, opts *Options) ([]*exp.VolumeMeasurement, error) {
	out := make([]*exp.VolumeMeasurement, 0, len(schemes))
	err := launchPerScheme(gen, base, schemes, opts, func(scheme core.Scheme, o *Outcome) error {
		total := make([]float64, len(o.Results))
		for r := range total {
			total[r] = stats.MB(o.TotalSent(r))
		}
		out = append(out, &exp.VolumeMeasurement{
			Scheme:        scheme,
			ColBcastSent:  stats.BytesToMB(o.SentBytes(simmpi.ClassColBcast)),
			RowReduceRecv: stats.BytesToMB(o.RecvBytes(simmpi.ClassRowReduce)),
			TotalSent:     total,
		})
		return nil
	})
	return out, err
}
