package simmpi

// Transport is the communication substrate underneath a World: it moves
// tagged messages between ranks and synchronizes them, nothing more. The
// World layers the MPI-like discipline on top — per-class volume counters,
// link serial numbering for the chaos adversary, rank-state tracking, and
// the Observer hook — so every Transport gets those for free and the
// accounting is identical across backends.
//
// Two backends live in the tree: InProc (this package) runs every rank as
// a goroutine with in-memory mailboxes, and internal/tcptransport runs one
// rank per OS process exchanging length-prefixed frames over TCP.
//
// Contract:
//
//   - Send must not block (the MPI_Isend discipline): delivery is
//     buffered without bound.
//   - Send returns the destination queue depth just after insert when it
//     is known locally, else the local outbound queue depth. Observers use
//     it as a congestion signal; correctness never depends on it.
//   - Recv/TryRecv/Pending/Barrier may only be called for ranks in
//     LocalRanks. Message order per (src, dst) link is FIFO unless an
//     Adversary reorders it.
//   - SetAdversary must be called before any traffic; the adversary runs
//     at delivery on the destination's side of the link.
//   - Close wakes any blocked Recv (which then returns ok = false) and
//     releases backend resources. It must be idempotent.
type Transport interface {
	// Size returns the total number of ranks in the job, across all
	// processes for distributed backends.
	Size() int
	// LocalRanks lists the ranks hosted by this process, ascending. The
	// in-process backend returns all of 0..Size()-1; the TCP backend
	// returns the single rank this process embodies.
	LocalRanks() []int
	// Send enqueues msg for msg.Dst and returns a queue depth (see the
	// interface contract). msg.Serial and the volume counters are already
	// handled by the World; the transport only moves the message.
	Send(msg Message) int
	// Recv blocks until a message for the local rank arrives or the
	// transport is closed (ok = false).
	Recv(rank int) (Message, bool)
	// TryRecv is the non-blocking variant of Recv.
	TryRecv(rank int) (Message, bool)
	// Pending returns a snapshot of the messages queued for a local rank,
	// oldest-first. Payload slices are shared and must be treated
	// read-only.
	Pending(rank int) []Message
	// SetAdversary installs (or removes, with nil) a delivery adversary
	// on every local mailbox.
	SetAdversary(a Adversary)
	// Barrier blocks the calling local rank until every rank in the job
	// has entered it.
	Barrier(rank int)
	// Close releases the transport. Idempotent.
	Close()
}
