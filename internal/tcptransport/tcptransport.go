// Package tcptransport is the multi-process backend for simmpi: each rank
// runs as one OS process and exchanges length-prefixed frames over TCP,
// one unidirectional connection per ordered (src, dst) link, with a
// per-link writer goroutine draining an outbound queue and a per-link
// reader goroutine pushing decoded frames into the rank's local
// simmpi.Inbox. Because delivery lands in the same Inbox structure the
// in-process backend uses, the chaos adversary and the volume counters
// layered above the Transport interface behave identically across
// backends — that equivalence is pinned by the golden cross-backend test
// in internal/distrun.
//
// Setup is two-phase to avoid port races: every rank first binds an
// ephemeral port (Listen), the launcher gathers and redistributes the
// actual addresses out of band, then every rank dials the full mesh
// (Listener.Connect) with retry/backoff while concurrently accepting its
// inbound connections. Barriers are coordinated by rank 0: every other
// rank sends a barrier-arrive frame and waits for the coordinator's
// barrier-release broadcast.
package tcptransport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pselinv/internal/simmpi"
)

// Config describes one rank's view of the job.
type Config struct {
	// Rank is the rank this process embodies, an index into Addrs.
	Rank int
	// Addrs holds the listen address of every rank, index = rank. The
	// world size is len(Addrs).
	Addrs []string
	// SetupTimeout bounds the whole mesh construction — dial retries and
	// inbound accepts. Defaults to 30s.
	SetupTimeout time.Duration
	// ClockSyncPings, when positive, runs that many ping/pong round trips
	// on every dialed connection during the handshake (clamped to 255 —
	// the hello announces the count in one byte) and records an NTP-style
	// midpoint estimate of each peer's clock offset, retrievable with
	// ClockOffsets. Zero keeps the handshake as before.
	ClockSyncPings int
	// ClockEpoch is the instant local clock readings are measured from;
	// the observability layer passes the same epoch to its collector so
	// offsets translate its timestamps directly. Zero means "now" (at
	// Connect).
	ClockEpoch time.Time
	// Elem is the element tag of the run's payloads (dense.Elem numbering:
	// 0 real, 1 complex). Announced in the hello; a peer announcing a
	// different tag fails the handshake, so a world whose processes were
	// built from divergent specs cannot exchange payloads that would
	// elementwise-combine as the wrong arithmetic.
	Elem byte
}

// ClockMeasurement is one dialed connection's clock-offset estimate.
// OffsetNS estimates (peer clock − local clock) — both as ns since the
// respective process epochs — at the midpoint of the best round trip;
// UncNS is the worst-case uncertainty (half that round trip) and RTTNS the
// round trip itself.
type ClockMeasurement struct {
	Peer     int
	OffsetNS int64
	UncNS    int64
	RTTNS    int64
}

// PingSample is one clock-sync round trip: T0 the local clock when the ping
// left, TR the remote clock in the pong, T2 the local clock when the pong
// arrived.
type PingSample struct {
	T0, TR, T2 int64
}

// EstimateOffset applies the NTP midpoint estimator to a set of round
// trips, trusting the sample with the smallest RTT (queueing delays only
// ever lengthen a round trip, so the fastest sample carries the least
// asymmetry): offset = TR − (T0+T2)/2, uncertainty = RTT/2 — the true
// offset provably lies within ±uncertainty of the estimate if the remote
// clock was read between ping receipt and pong send.
func EstimateOffset(samples []PingSample) ClockMeasurement {
	best := ClockMeasurement{}
	found := false
	for _, s := range samples {
		rtt := s.T2 - s.T0
		if rtt < 0 {
			continue // a non-monotonic local clock; skip the sample
		}
		if !found || rtt < best.RTTNS {
			best = ClockMeasurement{
				OffsetNS: s.TR - (s.T0+s.T2)/2,
				UncNS:    (rtt + 1) / 2,
				RTTNS:    rtt,
			}
			found = true
		}
	}
	return best
}

// Listener is a rank's bound-but-unconnected endpoint: the first phase of
// setup. Bind with addr ":0", publish Addr() to the other ranks, then
// Connect with the complete address list.
type Listener struct {
	ln *net.TCPListener
}

// Listen binds addr (host:port; port 0 picks an ephemeral port).
func Listen(addr string) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcptransport: listen %s: %w", addr, err)
	}
	return &Listener{ln: ln.(*net.TCPListener)}, nil
}

// Addr returns the actual bound address (with the resolved port).
func (l *Listener) Addr() string { return l.ln.Addr().String() }

// Close abandons the endpoint without connecting (error-path cleanup;
// Connect takes ownership on success).
func (l *Listener) Close() error { return l.ln.Close() }

// outLink is the sending half of one (src, dst) link: an unbounded queue of
// encoded frames drained by a dedicated writer goroutine, so Send never
// blocks on the network (the MPI_Isend discipline) and per-link FIFO order
// is the connection's byte order. A frame is encoded as it is queued, so a
// sender may reuse its buffers once Send returns (buffered-send semantics).
type outLink struct {
	dst  int
	conn net.Conn

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []byte // encoded frames
	frames int    // frames in queue
	closed bool
}

func newOutLink(dst int, conn net.Conn) *outLink {
	l := &outLink{dst: dst, conn: conn}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// enqueue appends the frame appendFrame encodes and returns the outbound
// queue depth in frames just after the insert (the transport's depth signal
// for remote sends).
func (l *outLink) enqueue(appendFrame func([]byte) []byte) int {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0
	}
	l.queue = appendFrame(l.queue)
	l.frames++
	depth := l.frames
	l.mu.Unlock()
	l.cond.Signal()
	return depth
}

// close marks the link finished; the writer drains the queue, flushes, and
// closes the connection.
func (l *outLink) close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.cond.Broadcast()
}

// barrier is the rendezvous state. Rank 0 counts cumulative arrivals; the
// other ranks count cumulative releases. Counting cumulatively (instead of
// per-generation) makes early arrivals for the next barrier harmless.
type barrier struct {
	mu       sync.Mutex
	cond     *sync.Cond
	arrivals int
	releases int
	gen      int
	broken   bool
}

func (b *barrier) init() { b.cond = sync.NewCond(&b.mu) }

func (b *barrier) arrive() {
	b.mu.Lock()
	b.arrivals++
	b.mu.Unlock()
	b.cond.Broadcast()
}

func (b *barrier) release() {
	b.mu.Lock()
	b.releases++
	b.mu.Unlock()
	b.cond.Broadcast()
}

// waitArrivals blocks the coordinator until every other rank has arrived.
func (b *barrier) waitArrivals(need int) {
	b.mu.Lock()
	for b.arrivals < need && !b.broken {
		b.cond.Wait()
	}
	b.arrivals -= need
	b.mu.Unlock()
}

// waitRelease blocks a non-coordinator until its next release arrives.
func (b *barrier) waitRelease() {
	b.mu.Lock()
	b.gen++
	for b.releases < b.gen && !b.broken {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// fail wakes every barrier waiter (link failure or shutdown).
func (b *barrier) fail() {
	b.mu.Lock()
	b.broken = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

// Transport is the TCP backend for one rank. It implements
// simmpi.Transport.
type Transport struct {
	rank  int
	p     int
	inbox *simmpi.Inbox
	local [1]int

	ln      *net.TCPListener
	links   []*outLink // index dst; nil for self
	inConns []net.Conn
	barrier barrier

	closing   atomic.Bool
	closeOnce sync.Once
	wg        sync.WaitGroup

	errMu sync.Mutex
	err   error

	dialRetries int64

	// elem is the element tag announced in (and required of) every hello.
	elem byte

	// epoch is the local clock-sync reference instant; clockOff holds the
	// per-dialed-peer offset estimates, written only during Connect and
	// read only after it returns.
	epoch    time.Time
	clockOff []ClockMeasurement
}

var _ simmpi.Transport = (*Transport)(nil)

// New is the single-call convenience: bind cfg.Addrs[cfg.Rank] and build
// the mesh. It requires the address list to be fully known up front (fixed
// ports); launchers using ephemeral ports do Listen / exchange / Connect.
func New(cfg Config) (*Transport, error) {
	l, err := Listen(cfg.Addrs[cfg.Rank])
	if err != nil {
		return nil, err
	}
	t, err := l.Connect(cfg)
	if err != nil {
		l.Close()
		return nil, err
	}
	return t, nil
}

// Connect builds the full mesh: dial every peer (with retry while peers
// are still binding) and accept every peer's dial, handshaking each
// connection. On success the Transport owns the listener.
func (l *Listener) Connect(cfg Config) (*Transport, error) {
	p := len(cfg.Addrs)
	if p <= 0 {
		return nil, errors.New("tcptransport: empty address list")
	}
	if cfg.Rank < 0 || cfg.Rank >= p {
		return nil, fmt.Errorf("tcptransport: rank %d out of range [0,%d)", cfg.Rank, p)
	}
	setup := cfg.SetupTimeout
	if setup <= 0 {
		setup = 30 * time.Second
	}
	deadline := time.Now().Add(setup)

	pings := cfg.ClockSyncPings
	if pings < 0 {
		pings = 0
	}
	if pings > 255 {
		pings = 255 // one byte in the hello
	}
	epoch := cfg.ClockEpoch
	if epoch.IsZero() {
		epoch = time.Now()
	}

	t := &Transport{
		rank:  cfg.Rank,
		p:     p,
		inbox: simmpi.NewInbox(cfg.Rank),
		ln:    l.ln,
		links: make([]*outLink, p),
		epoch: epoch,
		elem:  cfg.Elem,
	}
	t.local[0] = cfg.Rank
	t.barrier.init()

	// Accept the P-1 inbound connections concurrently with our own dials
	// (two ranks dialing each other must not deadlock).
	acceptDone := make(chan error, 1)
	go t.acceptAll(deadline, acceptDone)

	var dialErr error
	for dst, addr := range cfg.Addrs {
		if dst == t.rank {
			continue
		}
		conn, err := t.dialRetry(addr, deadline)
		if err != nil {
			dialErr = fmt.Errorf("tcptransport: rank %d dialing rank %d at %s: %w",
				t.rank, dst, addr, err)
			break
		}
		var hello []byte
		hello = appendHelloFrame(hello, t.rank, p, pings, t.elem)
		if _, err := conn.Write(hello); err != nil {
			conn.Close()
			dialErr = fmt.Errorf("tcptransport: handshake to rank %d: %w", dst, err)
			break
		}
		if pings > 0 {
			if err := t.clockSync(conn, dst, pings, deadline); err != nil {
				conn.Close()
				dialErr = fmt.Errorf("tcptransport: clock sync to rank %d: %w", dst, err)
				break
			}
		}
		link := newOutLink(dst, conn)
		t.links[dst] = link
		t.wg.Add(1)
		go t.writer(link)
	}
	if dialErr == nil {
		dialErr = <-acceptDone
	} else {
		t.ln.Close() // abort the acceptor
		<-acceptDone
	}
	if dialErr != nil {
		t.Close()
		return nil, dialErr
	}
	return t, nil
}

// clockSync runs the dialer's side of the handshake clock exchange: pings
// serial ping/pong round trips on the not-yet-steady-state connection, then
// records the midpoint estimate of (peer clock − local clock) for the
// ordered (rank, dst) pair. Serial round trips keep at most one probe in
// flight, so each pong unambiguously brackets its remote clock reading.
func (t *Transport) clockSync(conn net.Conn, dst, pings int, deadline time.Time) error {
	conn.SetReadDeadline(deadline)
	defer conn.SetReadDeadline(time.Time{})
	samples := make([]PingSample, 0, pings)
	var out, in []byte
	for seq := 0; seq < pings; seq++ {
		out = appendClockPing(out[:0], uint32(seq))
		t0 := time.Since(t.epoch)
		if _, err := conn.Write(out); err != nil {
			return err
		}
		typ, payload, kept, err := readFrame(conn, in)
		t2 := time.Since(t.epoch)
		in = kept
		if err != nil {
			return err
		}
		if typ != frameClockPong {
			return fmt.Errorf("unexpected frame type %d awaiting clock pong", typ)
		}
		gotSeq, tr, err := decodeClockPong(payload)
		if err != nil {
			return err
		}
		if gotSeq != uint32(seq) {
			return fmt.Errorf("clock pong seq %d, want %d", gotSeq, seq)
		}
		samples = append(samples, PingSample{T0: int64(t0), TR: tr, T2: int64(t2)})
	}
	m := EstimateOffset(samples)
	m.Peer = dst
	t.clockOff = append(t.clockOff, m)
	return nil
}

// ClockOffsets returns the per-peer clock-offset estimates measured during
// the handshake (one per dialed connection; empty unless
// Config.ClockSyncPings was positive). Valid after Connect returns.
func (t *Transport) ClockOffsets() []ClockMeasurement {
	out := append([]ClockMeasurement(nil), t.clockOff...)
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// dialRetry dials addr until it succeeds or the setup deadline passes.
// Peers bind before addresses are exchanged, so the retry only covers the
// window where a peer has published its address but its accept loop is not
// yet scheduled.
func (t *Transport) dialRetry(addr string, deadline time.Time) (net.Conn, error) {
	backoff := 5 * time.Millisecond
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, fmt.Errorf("setup timeout")
		}
		conn, err := net.DialTimeout("tcp", addr, remain)
		if err == nil {
			return conn, nil
		}
		if time.Until(deadline) <= backoff {
			return nil, err
		}
		atomic.AddInt64(&t.dialRetries, 1)
		time.Sleep(backoff)
		if backoff < 250*time.Millisecond {
			backoff *= 2
		}
	}
}

// acceptAll accepts and handshakes the P-1 inbound connections, spawning a
// reader per connection.
func (t *Transport) acceptAll(deadline time.Time, done chan<- error) {
	t.ln.SetDeadline(deadline)
	seen := make(map[int]bool)
	for len(seen) < t.p-1 {
		conn, err := t.ln.Accept()
		if err != nil {
			done <- fmt.Errorf("tcptransport: rank %d accepting: %w", t.rank, err)
			return
		}
		conn.SetReadDeadline(deadline)
		typ, payload, buf, err := readFrame(conn, nil)
		if err != nil || typ != frameHello {
			conn.Close()
			done <- fmt.Errorf("tcptransport: rank %d: bad handshake (type %d): %v", t.rank, typ, err)
			return
		}
		src, pings, err := decodeHelloPayload(payload, t.p, t.elem)
		if err != nil || src == t.rank || src < 0 || src >= t.p || seen[src] {
			conn.Close()
			done <- fmt.Errorf("tcptransport: rank %d: invalid hello from rank %d: %v", t.rank, src, err)
			return
		}
		if err := t.answerClockPings(conn, pings, buf); err != nil {
			conn.Close()
			done <- fmt.Errorf("tcptransport: rank %d: clock sync with rank %d: %w", t.rank, src, err)
			return
		}
		conn.SetReadDeadline(time.Time{})
		seen[src] = true
		t.inConns = append(t.inConns, conn)
		t.wg.Add(1)
		go t.reader(conn, src)
	}
	t.ln.SetDeadline(time.Time{})
	done <- nil
}

// answerClockPings runs the acceptor's side of the handshake clock
// exchange: answer exactly the announced number of pings, stamping each
// pong with the local clock right after the ping arrived. The connection's
// read deadline is still the setup deadline here, so a stalled dialer
// cannot wedge the accept loop.
func (t *Transport) answerClockPings(conn net.Conn, pings int, buf []byte) error {
	var pong []byte
	for i := 0; i < pings; i++ {
		typ, payload, kept, err := readFrame(conn, buf)
		now := time.Since(t.epoch)
		buf = kept
		if err != nil {
			return err
		}
		if typ != frameClockPing {
			return fmt.Errorf("unexpected frame type %d awaiting clock ping", typ)
		}
		seq, err := decodeClockPing(payload)
		if err != nil {
			return err
		}
		pong = appendClockPong(pong[:0], seq, int64(now))
		if _, err := conn.Write(pong); err != nil {
			return err
		}
	}
	return nil
}

// fail records the first transport error and unblocks the local rank (its
// Recv returns ok = false and any barrier wait wakes), so a lost peer
// surfaces as a run failure instead of a silent hang.
func (t *Transport) fail(err error) {
	if t.closing.Load() {
		return
	}
	t.errMu.Lock()
	if t.err == nil {
		t.err = err
	}
	t.errMu.Unlock()
	t.inbox.Close()
	t.barrier.fail()
}

// Err returns the first link error observed, if any.
func (t *Transport) Err() error {
	t.errMu.Lock()
	defer t.errMu.Unlock()
	return t.err
}

// DialRetries returns how many dial attempts were retried during setup
// (a mesh-formation health signal surfaced by the worker).
func (t *Transport) DialRetries() int64 { return atomic.LoadInt64(&t.dialRetries) }

// writer drains one link's outbound queue, swapping it for the buffer it
// last wrote: a burst of sends coalesces into one syscall.
func (t *Transport) writer(l *outLink) {
	defer t.wg.Done()
	defer l.conn.Close()
	var out []byte
	for {
		l.mu.Lock()
		for len(l.queue) == 0 && !l.closed {
			l.cond.Wait()
		}
		if len(l.queue) == 0 && l.closed {
			l.mu.Unlock()
			return
		}
		out, l.queue, l.frames = l.queue, out[:0], 0
		l.mu.Unlock()
		// After a failed write the loop keeps draining, so enqueue never
		// blocks; the bytes go nowhere.
		if _, err := l.conn.Write(out); err != nil && !t.closing.Load() {
			t.fail(fmt.Errorf("tcptransport: write to rank %d: %w", l.dst, err))
		}
	}
}

// reader decodes one peer's frames into the local inbox. EOF is a normal
// peer shutdown (ranks finish at different times); any other failure
// breaks the run via fail.
func (t *Transport) reader(conn net.Conn, peer int) {
	defer t.wg.Done()
	var buf []byte
	for {
		typ, payload, kept, err := readFrame(conn, buf)
		buf = kept
		if err != nil {
			if !t.closing.Load() && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				t.fail(fmt.Errorf("tcptransport: read from rank %d: %w", peer, err))
			}
			return
		}
		switch typ {
		case frameData:
			msg, err := decodeDataPayload(payload)
			if err != nil {
				t.fail(err)
				return
			}
			if msg.Dst != t.rank || msg.Src != peer {
				t.fail(fmt.Errorf("tcptransport: rank %d got frame src %d dst %d on link from rank %d",
					t.rank, msg.Src, msg.Dst, peer))
				return
			}
			t.inbox.Push(msg)
		case frameBarrierArrive:
			t.barrier.arrive()
		case frameBarrierRelease:
			t.barrier.release()
		default:
			t.fail(fmt.Errorf("tcptransport: unknown frame type %d from rank %d", typ, peer))
			return
		}
	}
}

// Size returns the world size.
func (t *Transport) Size() int { return t.p }

// LocalRanks returns the single rank this process embodies.
func (t *Transport) LocalRanks() []int { return t.local[:] }

// Send routes msg: self-sends land directly in the local inbox, remote
// sends enqueue on the destination link (depth = outbound queue length).
func (t *Transport) Send(msg simmpi.Message) int {
	if msg.Dst == t.rank {
		return t.inbox.Push(msg)
	}
	l := t.links[msg.Dst]
	if l == nil {
		panic(fmt.Sprintf("tcptransport: send to invalid rank %d", msg.Dst))
	}
	return l.enqueue(func(b []byte) []byte { return appendDataFrame(b, &msg) })
}

func (t *Transport) checkLocal(rank int) {
	if rank != t.rank {
		panic(fmt.Sprintf("tcptransport: rank %d is not local to this process (local rank %d)", rank, t.rank))
	}
}

// Recv blocks until a message for the local rank arrives or the transport
// fails or closes.
func (t *Transport) Recv(rank int) (simmpi.Message, bool) {
	t.checkLocal(rank)
	return t.inbox.Pop()
}

// TryRecv is the non-blocking variant of Recv.
func (t *Transport) TryRecv(rank int) (simmpi.Message, bool) {
	t.checkLocal(rank)
	return t.inbox.TryPop()
}

// Pending snapshots the local rank's queue; non-local ranks report nil
// (their queues live in other processes).
func (t *Transport) Pending(rank int) []simmpi.Message {
	if rank != t.rank {
		return nil
	}
	return t.inbox.Pending()
}

// SetAdversary installs the delivery adversary on the local inbox. Each
// process perturbs delivery to its own rank; with the chaos adversary's
// per-(src,dst,serial) decision functions this composes into the same
// deterministic global perturbation the in-process backend applies.
func (t *Transport) SetAdversary(a simmpi.Adversary) { t.inbox.SetAdversary(a) }

// Barrier blocks until every rank in the job has entered it. Rank 0
// coordinates: it collects one arrive frame per peer, then broadcasts a
// release. Control frames share the data connections, so a release never
// overtakes data sent before the coordinator entered the barrier.
func (t *Transport) Barrier(rank int) {
	t.checkLocal(rank)
	if t.p == 1 {
		return
	}
	if t.rank == 0 {
		t.barrier.waitArrivals(t.p - 1)
		for _, l := range t.links {
			if l != nil {
				l.enqueue(appendBarrierRelease)
			}
		}
	} else {
		t.links[0].enqueue(func(b []byte) []byte { return appendBarrierArrive(b, t.rank) })
		t.barrier.waitRelease()
	}
}

// Close shuts the transport down: outbound queues drain and flush, the
// listener and inbound connections close, and every goroutine is joined.
// Idempotent.
func (t *Transport) Close() {
	t.closeOnce.Do(func() {
		t.closing.Store(true)
		for _, l := range t.links {
			if l != nil {
				l.close()
			}
		}
		if t.ln != nil {
			t.ln.Close()
		}
		t.inbox.Close()
		t.barrier.fail()
		for _, c := range t.inConns {
			c.Close()
		}
		t.wg.Wait()
	})
}
