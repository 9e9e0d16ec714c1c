package tcptransport

import (
	"encoding/binary"
	"io"
	"math"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pselinv/internal/simmpi"
)

// newMesh builds a P-rank localhost mesh inside one test process (each
// Transport plays one "process"). Cleanup closes every endpoint.
func newMesh(t *testing.T, p int) []*Transport {
	t.Helper()
	listeners := make([]*Listener, p)
	addrs := make([]string, p)
	for i := range listeners {
		l, err := Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		addrs[i] = l.Addr()
	}
	trs := make([]*Transport, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			trs[rank], errs[rank] = listeners[rank].Connect(Config{
				Rank: rank, Addrs: addrs, SetupTimeout: 20 * time.Second,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d connect: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, tr := range trs {
			tr.Close()
		}
	})
	return trs
}

// runMesh runs body concurrently on every rank's world and fails on error.
func runMesh(t *testing.T, trs []*Transport, timeout time.Duration, body func(r *simmpi.Rank)) []*simmpi.World {
	t.Helper()
	worlds := make([]*simmpi.World, len(trs))
	for i, tr := range trs {
		worlds[i] = simmpi.NewWorldOn(tr)
	}
	errs := make([]error, len(trs))
	var wg sync.WaitGroup
	for i, w := range worlds {
		wg.Add(1)
		go func(i int, w *simmpi.World) {
			defer wg.Done()
			errs[i] = w.Run(timeout, body)
		}(i, w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d run: %v", i, err)
		}
	}
	return worlds
}

// aggregateConservation sums the per-process counters (each world holds
// only its own rank's share) and checks global sent == received per class.
func aggregateConservation(t *testing.T, worlds []*simmpi.World) {
	t.Helper()
	for _, c := range simmpi.Classes() {
		var sent, recv int64
		for rank, w := range worlds {
			sent += w.SentBytes(rank, c)
			recv += w.RecvBytes(rank, c)
		}
		if sent != recv {
			t.Errorf("class %v: sent %d bytes, received %d", c, sent, recv)
		}
	}
}

// TestMeshAllToAll: every rank sends a tagged payload to every other rank
// and receives P-1 messages; volumes must conserve globally.
func TestMeshAllToAll(t *testing.T) {
	const p = 4
	trs := newMesh(t, p)
	worlds := runMesh(t, trs, 20*time.Second, func(r *simmpi.Rank) {
		for dst := 0; dst < p; dst++ {
			if dst == r.ID {
				continue
			}
			r.Send(dst, uint64(r.ID*p+dst), simmpi.ClassColBcast, []float64{float64(r.ID), float64(dst)})
		}
		for n := 0; n < p-1; n++ {
			msg, ok := r.Recv()
			if !ok {
				t.Errorf("rank %d: transport closed early", r.ID)
				return
			}
			if int(msg.Data[1]) != r.ID || int(msg.Data[0]) != msg.Src {
				t.Errorf("rank %d: corrupted payload %v from %d", r.ID, msg.Data, msg.Src)
			}
			if msg.Tag != uint64(msg.Src*p+r.ID) {
				t.Errorf("rank %d: tag %d from %d", r.ID, msg.Tag, msg.Src)
			}
		}
	})
	aggregateConservation(t, worlds)
	for rank, w := range worlds {
		if got := w.SentBytes(rank, simmpi.ClassColBcast); got != int64((p-1)*2*8) {
			t.Errorf("rank %d sent %d bytes, want %d", rank, got, (p-1)*2*8)
		}
	}
}

// TestMeshSelfSend: self-sends short-circuit through the local inbox and
// stay out of the volume counters, exactly like in-process.
func TestMeshSelfSend(t *testing.T) {
	trs := newMesh(t, 2)
	worlds := runMesh(t, trs, 10*time.Second, func(r *simmpi.Rank) {
		r.Send(r.ID, 42, simmpi.ClassOther, []float64{1, 2, 3})
		msg, ok := r.Recv()
		if !ok || msg.Src != r.ID || msg.Tag != 42 {
			t.Errorf("rank %d: self-send lost (%v %v)", r.ID, msg, ok)
		}
	})
	for rank, w := range worlds {
		if got := w.SentBytes(rank, simmpi.ClassOther); got != 0 {
			t.Errorf("rank %d: self-send counted as %d sent bytes", rank, got)
		}
	}
}

// TestMeshBarrier alternates compute phases separated by barriers; a rank
// racing ahead of the rendezvous would observe a stale counter.
func TestMeshBarrier(t *testing.T) {
	const p = 4
	const rounds = 25
	trs := newMesh(t, p)
	var phase [p]int64
	var mu sync.Mutex
	runMesh(t, trs, 30*time.Second, func(r *simmpi.Rank) {
		for round := 0; round < rounds; round++ {
			mu.Lock()
			phase[r.ID]++
			mu.Unlock()
			r.Barrier()
			mu.Lock()
			for other, v := range phase {
				if v != int64(round+1) {
					t.Errorf("rank %d after barrier %d: rank %d at phase %d", r.ID, round, other, v)
				}
			}
			mu.Unlock()
			r.Barrier()
		}
	})
}

// TestMeshFIFOPerLink: per-link order survives framing and the writer's
// batching.
func TestMeshFIFOPerLink(t *testing.T) {
	const n = 500
	trs := newMesh(t, 2)
	runMesh(t, trs, 20*time.Second, func(r *simmpi.Rank) {
		if r.ID == 0 {
			for i := 0; i < n; i++ {
				r.Send(1, uint64(i), simmpi.ClassOther, []float64{float64(i)})
			}
			return
		}
		for i := 0; i < n; i++ {
			msg, ok := r.Recv()
			if !ok {
				t.Fatal("closed early")
			}
			if msg.Tag != uint64(i) {
				t.Fatalf("message %d arrived with tag %d: link reordered", i, msg.Tag)
			}
		}
	})
}

// dropOdd drops every odd-serial message; used to prove the adversary
// composes with TCP delivery (it runs on the destination inbox).
type dropOdd struct{}

func (dropOdd) Pick(dst int, pending []simmpi.Message) (int, bool) {
	return 0, pending[0].Serial%2 == 1
}
func (dropOdd) Delivered(int, *simmpi.Message) {}

// TestMeshAdversary: an adversary installed through the World perturbs
// TCP-delivered traffic exactly as it would in-process, and conservation
// accounting reports the dropped bytes.
func TestMeshAdversary(t *testing.T) {
	const n = 10
	trs := newMesh(t, 2)
	worlds := make([]*simmpi.World, 2)
	for i, tr := range trs {
		worlds[i] = simmpi.NewWorldOn(tr)
		worlds[i].SetAdversary(dropOdd{})
	}
	var wg sync.WaitGroup
	for i, w := range worlds {
		wg.Add(1)
		go func(i int, w *simmpi.World) {
			defer wg.Done()
			err := w.Run(20*time.Second, func(r *simmpi.Rank) {
				if r.ID == 0 {
					for k := 0; k < n; k++ {
						r.Send(1, uint64(k), simmpi.ClassOther, []float64{float64(k)})
					}
					return
				}
				for k := 0; k < n/2; k++ { // only even serials survive
					msg, ok := r.Recv()
					if !ok {
						t.Error("closed early")
						return
					}
					if msg.Serial%2 != 0 {
						t.Errorf("odd-serial message %d delivered", msg.Serial)
					}
				}
			})
			if err != nil {
				t.Errorf("rank %d: %v", i, err)
			}
		}(i, w)
	}
	wg.Wait()
	sent := worlds[0].SentBytes(0, simmpi.ClassOther)
	recv := worlds[1].RecvBytes(1, simmpi.ClassOther)
	if sent != int64(n*8) || recv != int64(n/2*8) {
		t.Errorf("sent %d recv %d, want %d and %d (drops visible to accounting)", sent, recv, n*8, n/2*8)
	}
}

// TestDialRetryBackoff: a refused address is retried until the deadline,
// and the retry counter records the attempts.
func TestDialRetryBackoff(t *testing.T) {
	tr := &Transport{}
	_, err := tr.dialRetry("127.0.0.1:1", time.Now().Add(300*time.Millisecond))
	if err == nil {
		t.Fatal("dial to a refused port succeeded")
	}
	if tr.dialRetries == 0 {
		t.Error("no retries recorded")
	}
}

// TestFrameDataRoundTrip pins the codec on representative messages.
func TestFrameDataRoundTrip(t *testing.T) {
	msgs := []simmpi.Message{
		{Src: 0, Dst: 1, Tag: 0, Class: simmpi.ClassOther},
		{Src: 3, Dst: 0, Tag: ^uint64(0), Class: simmpi.ClassColReduce, Serial: 7,
			Data: []float64{0, -1.5, math.Inf(1), math.Copysign(0, -1), 1e-308}},
	}
	for _, want := range msgs {
		var buf []byte
		buf = appendDataFrame(buf, &want)
		if got := len(buf); got != frameHeader+dataOverhead+8*len(want.Data) {
			t.Fatalf("frame length %d", got)
		}
		typ := buf[4]
		if typ != frameData {
			t.Fatalf("frame type %d", typ)
		}
		got, err := decodeDataPayload(buf[frameHeader:])
		if err != nil {
			t.Fatal(err)
		}
		if got.Src != want.Src || got.Dst != want.Dst || got.Tag != want.Tag ||
			got.Class != want.Class || got.Serial != want.Serial || len(got.Data) != len(want.Data) {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("payload entry %d: %v != %v (bitwise)", i, got.Data[i], want.Data[i])
			}
		}
	}
}

// FuzzFrameRoundTrip fuzzes the data-frame codec: any message built from
// the fuzzed fields must survive encode/decode bit-exactly — the tag in
// particular, since it carries the engine's packed OpKind/supernode/block
// key across the wire.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint32(0), uint32(1), uint8(0), uint64(0x3ff0000000000000))
	f.Add(^uint64(0), uint64(12345), uint32(15), uint32(0), uint8(8), uint64(0x7ff8000000000001))
	f.Fuzz(func(t *testing.T, tag, serial uint64, src, dst uint32, class uint8, bits uint64) {
		want := simmpi.Message{
			Src:    int(src),
			Dst:    int(dst),
			Tag:    tag,
			Serial: serial,
			Class:  simmpi.Class(class),
			Data:   []float64{math.Float64frombits(bits), 42},
		}
		buf := appendDataFrame(nil, &want)
		got, err := decodeDataPayload(buf[frameHeader:])
		if err != nil {
			t.Fatal(err)
		}
		if got.Src != want.Src || got.Dst != want.Dst || got.Tag != want.Tag ||
			got.Serial != want.Serial || got.Class != want.Class {
			t.Fatalf("header round trip: got %+v want %+v", got, want)
		}
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("payload entry %d not bit-identical", i)
			}
		}
	})
}

// TestDecodeRejectsCorruptFrames: truncated or misaligned payloads error
// instead of mis-slicing.
func TestDecodeRejectsCorruptFrames(t *testing.T) {
	if _, err := decodeDataPayload(make([]byte, dataOverhead-1)); err == nil {
		t.Error("short payload accepted")
	}
	if _, err := decodeDataPayload(make([]byte, dataOverhead+3)); err == nil {
		t.Error("misaligned payload accepted")
	}
	if _, _, err := decodeHelloPayload(make([]byte, helloLen), 4, 0); err == nil {
		t.Error("zero-magic hello accepted")
	}
	if _, _, err := decodeHelloPayload(make([]byte, helloLen-1), 4, 0); err == nil {
		t.Error("short hello accepted")
	}
	if _, err := decodeClockPing(make([]byte, 3)); err == nil {
		t.Error("short clock ping accepted")
	}
	if _, _, err := decodeClockPong(make([]byte, 11)); err == nil {
		t.Error("short clock pong accepted")
	}
}

// TestHelloRoundTrip pins the v3 hello layout, ping count and element tag
// included.
func TestHelloRoundTrip(t *testing.T) {
	buf := appendHelloFrame(nil, 3, 8, 11, 1)
	src, pings, err := decodeHelloPayload(buf[frameHeader:], 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if src != 3 || pings != 11 {
		t.Fatalf("hello round trip: src=%d pings=%d, want 3, 11", src, pings)
	}
}

// TestHelloRejectsElementMismatch: a peer announcing a different element
// tag is a configuration split (one process factorized real, another
// complex) and must fail the handshake with an explicit error.
func TestHelloRejectsElementMismatch(t *testing.T) {
	buf := appendHelloFrame(nil, 3, 8, 0, 1)
	if _, _, err := decodeHelloPayload(buf[frameHeader:], 8, 0); err == nil {
		t.Fatal("element-tag mismatch accepted")
	} else if !strings.Contains(err.Error(), "element tag") {
		t.Fatalf("mismatch error does not name the element tag: %v", err)
	}
}

// TestClockFrameRoundTrip pins the clock ping/pong payloads.
func TestClockFrameRoundTrip(t *testing.T) {
	ping := appendClockPing(nil, 7)
	if seq, err := decodeClockPing(ping[frameHeader:]); err != nil || seq != 7 {
		t.Fatalf("ping round trip: seq=%d err=%v", seq, err)
	}
	pong := appendClockPong(nil, 9, -12345)
	seq, clk, err := decodeClockPong(pong[frameHeader:])
	if err != nil || seq != 9 || clk != -12345 {
		t.Fatalf("pong round trip: seq=%d clk=%d err=%v", seq, clk, err)
	}
}

// TestSendCopiesPayload holds a link's writer in the write of a first frame
// that the peer has read only the header of (an unbuffered pipe) while a
// second message waits in the queue. Its sender overwrites the payload once
// Send returns, as a rank recycling a sent buffer does; the peer must still
// receive the words that were sent.
func TestSendCopiesPayload(t *testing.T) {
	conn, peer := net.Pipe()
	defer peer.Close()
	tr := &Transport{p: 2, links: []*outLink{nil, newOutLink(1, conn)}}
	tr.wg.Add(1)
	go tr.writer(tr.links[1])
	defer tr.wg.Wait()
	defer tr.links[1].close()
	tr.Send(simmpi.Message{Src: 0, Dst: 1, Tag: 1, Data: []float64{1, 2}})
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(peer, hdr[:]); err != nil { // the writer is now inside the first frame
		t.Fatal(err)
	}
	sent := []float64{3, 4, 5}
	tr.Send(simmpi.Message{Src: 0, Dst: 1, Tag: 2, Data: sent})
	for i := range sent {
		sent[i] = -1
	}
	if _, err := io.ReadFull(peer, make([]byte, binary.LittleEndian.Uint32(hdr[:4]))); err != nil {
		t.Fatal(err)
	}
	typ, payload, _, err := readFrame(peer, nil)
	if err != nil || typ != frameData {
		t.Fatalf("second frame: type %d, %v", typ, err)
	}
	if msg, err := decodeDataPayload(payload); err != nil || !slices.Equal(msg.Data, []float64{3, 4, 5}) {
		t.Fatalf("second frame carries %v (%v), want the words sent", msg.Data, err)
	}
}
