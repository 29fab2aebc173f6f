package wire

import (
	"fmt"
	"time"
)

// DurableHooks is the write-ahead-log surface the transport calls so a
// restarted node can resume its exact wire state. It is implemented by
// internal/durable; wire itself never touches disk. All methods must be
// safe for concurrent use. A nil hooks value (the default) disables
// durability entirely.
//
// The contract, per peer connection:
//
//   - FrameQueued is called under the peer lock, after a frame is
//     admitted to the resend queue with its sequence number assigned and
//     before any attempt to write it to a socket.
//   - SyncForWrite is called before a batch of queued frames is written
//     to a socket. Once a frame reaches the network its sequence number
//     is burned: a restarted node must never reuse it for different
//     content, so the FrameQueued record must be on stable storage first.
//   - AckAdvanced is called when the peer's cumulative ack watermark
//     advances; frames at or below it will never be resent.
//   - Delivered is called for every accepted inbound frame, before the
//     receive watermark advances and before the message is handed to a
//     handler. An error refuses the frame (the connection drops and the
//     sender retries later).
//   - SyncForAck is called before an ack is written. An ack promises the
//     sender it may forget those frames, so the Delivered records they
//     cover must be on stable storage first.
//   - Consumed is called when a delivered remote message is discarded
//     without ever reaching a process journal (dead letter), so recovery
//     does not re-deliver it forever.
type DurableHooks interface {
	FrameQueued(peer int, seq uint64, frame []byte)
	AckAdvanced(peer int, acked uint64)
	Delivered(from int, seq uint64, frame []byte) error
	Consumed(from int, seq uint64)
	SyncForWrite() error
	SyncForAck() error
	Stats() DurableStats
}

// DurableStats surfaces the WAL counters through WireStats.
type DurableStats struct {
	Appends          uint64
	Syncs            uint64
	TornTruncations  uint64
	RecoveredRecords uint64
	RecoveryTime     time.Duration
	// CheckpointsLost reports that the store stopped checkpointing for
	// the rest of this run (its live fold rejected a record it had just
	// appended): the WAL keeps growing and a restart replays all of it.
	CheckpointsLost bool
}

// String implements fmt.Stringer.
func (s DurableStats) String() string {
	out := fmt.Sprintf("wal appends=%d syncs=%d torn=%d recovered=%d in %v",
		s.Appends, s.Syncs, s.TornTruncations, s.RecoveredRecords, s.RecoveryTime)
	if s.CheckpointsLost {
		out += " CHECKPOINTS-LOST"
	}
	return out
}

// Resume carries the wire state recovered from the WAL into NewNode: the
// per-peer sequence space to continue from, the unacked tail to resend,
// and the per-sender delivery watermarks that dedup resent frames.
type Resume struct {
	// Peers maps peer node ID → send-side resume state.
	Peers map[int]ResumePeer
	// Delivered maps sender node ID → highest contiguous wire seq this
	// node had durably accepted before the crash.
	Delivered map[int]uint64
}

// ResumePeer is the send-side state toward one peer.
type ResumePeer struct {
	// NextSeq is the last sequence number assigned (0 = none); the next
	// frame sent will carry NextSeq+1.
	NextSeq uint64
	// Frames is the unacknowledged tail, ascending by Seq, to be requeued
	// for resend on the next connection.
	Frames []ResumeFrame
}

// ResumeFrame is one unacked encoded message.
type ResumeFrame struct {
	Seq   uint64
	Frame []byte
}
