// Package msg defines the HOPE wire messages of the paper's Table 1 —
// Guess, Affirm, Deny, Replace, Rollback — plus the two extensions needed
// to make the algorithm executable:
//
//   - Retract, sent by rollback for every AID the rolled-back interval had
//     speculatively affirmed (the unnamed message in Figure 11's rollback);
//   - Data, the tagged user message envelope (§3: "a speculative process
//     tags the messages it sends with the set of AIDs that it depends on").
package msg

import (
	"fmt"
	"strings"

	"github.com/hope-dist/hope/internal/ids"
)

// Kind enumerates the message types. The first five are Table 1 verbatim.
type Kind int

const (
	// KindGuess registers the sending interval as dependent on the
	// destination AID ("sender guesses AID is true").
	KindGuess Kind = iota + 1
	// KindAffirm asserts the destination AID true, subject to the
	// attached IDO set (empty IDO = unconditional).
	KindAffirm
	// KindDeny asserts the destination AID false, unconditionally.
	KindDeny
	// KindReplace tells the target interval to replace the sending AID
	// in its IDO set with the attached IDO set.
	KindReplace
	// KindRollback tells the target interval's process to roll back the
	// target interval and everything after it.
	KindRollback
	// KindRetract withdraws a speculative affirm: the AID returns from
	// Maybe to Hot if the affirm came from the identified interval.
	KindRetract
	// KindData is a user message tagged with the sender's IDO set.
	KindData
	// KindProbe was an engine-internal query of an AID's state, used by
	// assumption garbage collection before the engine's AID table could
	// read its machines directly. Nothing sends it any more; the value
	// stays so old frames and WALs still decode, and a table receiving
	// one traces it as a violation.
	KindProbe
	// KindCutProbe asks an AID whether a UDO-based cycle cut of it is
	// currently sound (the AID is still in the same conditional-affirm
	// episode). Sent by Control when Algorithm 2 discards a replacement;
	// the cut only counts toward finalization once acknowledged.
	KindCutProbe
	// KindCutAck confirms a cycle cut: the probed AID was still
	// conditionally affirmed, so the target interval may retire its
	// pending cut of that AID.
	KindCutAck
	// KindRevive tells the target interval that the named AID's
	// conditional affirm was retracted: any resolution of that AID the
	// interval performed through the voided chain is invalid, so the
	// interval must depend on the AID directly again. Sent by an AID
	// process to its DOM when a Retract lands; see DESIGN.md §4.
	KindRevive
	// KindNack rejects a ring-routed adjudication delivered to a node
	// that does not own the subject AID under its current membership
	// view. Epoch carries the rejecting node's view epoch and Payload
	// echoes the original message, so the sender's router can retry it
	// against a fresher ring. Engine-internal, like Probe; see DESIGN.md
	// §13.
	KindNack
	// KindBatch coalesces several ring-routed adjudications bound for the
	// same owner into one frame: Payload carries the inner []*Message and
	// the receiving router unpacks and adjudicates each as if it had
	// arrived alone (wrong-owner inners are NACKed individually). Epoch is
	// the sender's view epoch at flush time. Engine-internal, like Nack.
	KindBatch
)

// Kinds lists every message kind, in wire order. Codec and trace tests
// range over it so a newly added kind cannot be forgotten.
var Kinds = []Kind{
	KindGuess, KindAffirm, KindDeny, KindReplace, KindRollback,
	KindRetract, KindData, KindProbe, KindCutProbe, KindCutAck, KindRevive,
	KindNack, KindBatch,
}

// Valid reports whether k is a defined message kind.
func (k Kind) Valid() bool { return k >= KindGuess && k <= KindBatch }

// Adjudication reports whether k is addressed to an AID machine: Guess,
// Affirm, Deny, Retract or CutProbe.
func (k Kind) Adjudication() bool {
	switch k {
	case KindGuess, KindAffirm, KindDeny, KindRetract, KindCutProbe:
		return true
	}
	return false
}

// KindFromString parses the String form of a kind ("Guess", "Affirm",
// ...). It is the inverse of Kind.String for all valid kinds.
func KindFromString(s string) (Kind, bool) {
	for _, k := range Kinds {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// GoString implements fmt.GoStringer, rendering the Go constant name.
func (k Kind) GoString() string {
	if k.Valid() {
		return "msg.Kind" + k.String()
	}
	return fmt.Sprintf("msg.Kind(%d)", int(k))
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindGuess:
		return "Guess"
	case KindAffirm:
		return "Affirm"
	case KindDeny:
		return "Deny"
	case KindReplace:
		return "Replace"
	case KindRollback:
		return "Rollback"
	case KindRetract:
		return "Retract"
	case KindData:
		return "Data"
	case KindProbe:
		return "Probe"
	case KindCutProbe:
		return "CutProbe"
	case KindCutAck:
		return "CutAck"
	case KindRevive:
		return "Revive"
	case KindNack:
		return "Nack"
	case KindBatch:
		return "Batch"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Message is the single envelope carried by the transport. Field usage by
// kind (— means unused):
//
//	Kind      IID                      AID        IDO                Payload/Tag
//	Guess     sending interval         subject    —                  —
//	Affirm    sending interval         subject    sender's IDO       —
//	Deny      sending interval         subject    —                  —
//	Replace   target interval          sender AID replacement set    —
//	Rollback  target interval          denied AID —                  —
//	Retract   rolled-back interval     subject    —                  —
//	Data      sending interval         —          —                  both
type Message struct {
	Kind Kind
	From ids.PID
	To   ids.PID

	// IID identifies the sending interval (Guess/Affirm/Deny/Retract/Data)
	// or the target interval (Replace/Rollback).
	IID ids.IntervalID

	// AID is the subject assumption: the guessed/affirmed/denied/retracted
	// AID, the Replace sender, or the denied AID that caused a Rollback.
	AID ids.AID

	// IDO carries a dependency set: the conditional-affirm set on Affirm,
	// or the replacement set on Replace. Receivers must not mutate it.
	IDO []ids.AID

	// Tag is the sender's IDO snapshot on Data messages.
	Tag []ids.AID

	// Payload is the user content of a Data message (or the echoed
	// original message on a Nack).
	Payload any

	// Epoch is the sender's membership view epoch when ownership routing
	// is on: AID-bound adjudications are stamped with the ring epoch they
	// were routed under, and a Nack carries the rejecting node's epoch.
	// Zero when routing is off (the field is absent from codec v2 frames).
	Epoch uint64

	// SrcNode/SrcSeq record receive-side wire provenance: the peer node a
	// message arrived from and its per-peer wire sequence number. They are
	// stamped by the receiving wire.Node after decoding and are NOT
	// encoded on the wire. SrcSeq == 0 means the message was local (or
	// simulated) — wire sequence numbers start at 1. The durable layer
	// uses them to pair journalled receives with delivered frames during
	// crash recovery.
	SrcNode int
	SrcSeq  uint64
}

// String renders a compact single-line description, used by traces.
func (m *Message) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s->%s", m.Kind, m.From, m.To)
	if m.IID.Valid() {
		fmt.Fprintf(&b, " %s", m.IID)
	}
	if m.AID.Valid() {
		fmt.Fprintf(&b, " %s", m.AID)
	}
	if len(m.IDO) > 0 {
		fmt.Fprintf(&b, " ido=%v", m.IDO)
	}
	if len(m.Tag) > 0 {
		fmt.Fprintf(&b, " tag=%v", m.Tag)
	}
	return b.String()
}

// Guess constructs a Guess registration from interval iid to AID x.
func Guess(from ids.PID, iid ids.IntervalID, x ids.AID) *Message {
	return &Message{Kind: KindGuess, From: from, To: x.PID(), IID: iid, AID: x}
}

// Affirm constructs an Affirm of x conditioned on ido (nil = definite).
func Affirm(from ids.PID, iid ids.IntervalID, x ids.AID, ido []ids.AID) *Message {
	return &Message{Kind: KindAffirm, From: from, To: x.PID(), IID: iid, AID: x, IDO: ido}
}

// Deny constructs an unconditional Deny of x.
func Deny(from ids.PID, iid ids.IntervalID, x ids.AID) *Message {
	return &Message{Kind: KindDeny, From: from, To: x.PID(), IID: iid, AID: x}
}

// Replace constructs a Replace of AID x with ido in target interval's IDO.
func Replace(x ids.AID, target ids.IntervalID, ido []ids.AID) *Message {
	return &Message{Kind: KindReplace, From: x.PID(), To: target.Proc, IID: target, AID: x, IDO: ido}
}

// Rollback constructs a Rollback of target caused by denial of x.
func Rollback(x ids.AID, target ids.IntervalID) *Message {
	return &Message{Kind: KindRollback, From: x.PID(), To: target.Proc, IID: target, AID: x}
}

// Retract constructs a Retract of interval iid's speculative affirm of x.
func Retract(from ids.PID, iid ids.IntervalID, x ids.AID) *Message {
	return &Message{Kind: KindRetract, From: from, To: x.PID(), IID: iid, AID: x}
}

// Data constructs a tagged user message.
func Data(from, to ids.PID, iid ids.IntervalID, tag []ids.AID, payload any) *Message {
	return &Message{Kind: KindData, From: from, To: to, IID: iid, Tag: tag, Payload: payload}
}

// Revive constructs a revive of x in the target interval's IDO.
func Revive(x ids.AID, target ids.IntervalID) *Message {
	return &Message{Kind: KindRevive, From: x.PID(), To: target.Proc, IID: target, AID: x}
}

// CutProbe constructs a cut-confirmation request for x by interval iid.
func CutProbe(from ids.PID, iid ids.IntervalID, x ids.AID) *Message {
	return &Message{Kind: KindCutProbe, From: from, To: x.PID(), IID: iid, AID: x}
}

// CutAck constructs a cut confirmation for the target interval.
func CutAck(x ids.AID, target ids.IntervalID) *Message {
	return &Message{Kind: KindCutAck, From: x.PID(), To: target.Proc, IID: target, AID: x}
}

// Nack constructs an ownership rejection of original, addressed to the
// sending node's router at routerPID. epoch is the rejecting node's view
// epoch; the original message rides in Payload for the retry.
func Nack(from, routerPID ids.PID, epoch uint64, original *Message) *Message {
	return &Message{Kind: KindNack, From: from, To: routerPID, AID: original.AID,
		Epoch: epoch, Payload: original}
}

// Batch coalesces inner adjudications bound for the router at routerPID
// into one frame. epoch is the sender's view epoch at flush time.
func Batch(from, routerPID ids.PID, epoch uint64, inner []*Message) *Message {
	return &Message{Kind: KindBatch, From: from, To: routerPID, Epoch: epoch, Payload: inner}
}
