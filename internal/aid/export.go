// Export is the portable snapshot of one AID machine, shipped between
// nodes when ring ownership moves (DESIGN.md §13): live handoff sends a
// batch over the transport's transfer frame, and the durable layer
// journals the same encoding as recAIDExport records so a dead owner's
// successor can adopt its shard from the WAL.

package aid

import (
	"encoding/binary"
	"fmt"

	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/sets"
	"github.com/hope-dist/hope/internal/trace"
)

// Export captures everything a successor needs to continue adjudicating
// an assumption: the truth value, the affirmer whose Retract must still
// be honoured, the conditional-affirm set, the revocable-commit mode,
// and the dependent intervals a later deny must reach.
type Export struct {
	AID       ids.AID
	State     State
	Affirmer  ids.IntervalID
	Revocable bool
	DOM       []ids.IntervalID
	AIDO      []ids.AID
}

// Export snapshots the machine.
func (a *Machine) Export() Export {
	return Export{
		AID:       a.self,
		State:     a.state,
		Affirmer:  a.affirmer,
		Revocable: a.revocable,
		DOM:       a.dom.Slice(),
		AIDO:      a.aido.Slice(),
	}
}

// FromExport reconstructs a machine from a snapshot.
func FromExport(e Export, tracer trace.Tracer) *Machine {
	if tracer == nil {
		tracer = trace.Nop
	}
	return &Machine{
		self:      e.AID,
		state:     e.State,
		dom:       sets.NewIntervalSet(e.DOM...),
		aido:      sets.NewAIDSet(e.AIDO...),
		tracer:    tracer,
		affirmer:  e.Affirmer,
		revocable: e.Revocable,
	}
}

// stateRank orders states by how much adjudication they embody, so a
// merge of two divergent snapshots keeps the further-progressed one.
func stateRank(s State) int {
	switch s {
	case Cold:
		return 0
	case Hot:
		return 1
	case Maybe:
		return 2
	case True, False:
		return 3
	}
	return 0
}

// Merge folds snapshot e into the machine. Two snapshots of the same
// AID can disagree when a live transfer races the receiver's lazy
// Cold-create (or a WAL adoption): the further-progressed state wins —
// it embodies adjudications the other has not seen — and the DOM is
// always unioned, because a dependent registered on either side must
// stay reachable by a later deny's rollback fan-out.
func (a *Machine) Merge(e Export) {
	for _, b := range e.DOM {
		a.depend(b)
	}
	if stateRank(e.State) <= stateRank(a.state) {
		return
	}
	a.affirmer = e.Affirmer
	a.aido = sets.NewAIDSet(e.AIDO...)
	if e.Revocable {
		a.revocable = true
	}
	a.setState(e.State, "merged migrated snapshot")
}

// exportVersion is the first byte of every encoded export batch; bump on
// layout change so mixed-version handoffs fail loudly.
const exportVersion = 1

// maxExportSet bounds decoded set sizes so a corrupt count cannot force
// a huge allocation (the WAL adoption path reads foreign files).
const maxExportSet = 1 << 20

// AppendExport appends e's encoding to buf:
//
//	aid       uvarint
//	state     uint8
//	revocable uint8
//	affirmer  proc uvarint, seq uvarint, epoch uvarint
//	dom       count uvarint, then (proc, seq, epoch) uvarints each
//	aido      count uvarint, then count uvarints
func AppendExport(buf []byte, e Export) []byte {
	buf = binary.AppendUvarint(buf, uint64(e.AID))
	buf = append(buf, byte(e.State))
	rev := byte(0)
	if e.Revocable {
		rev = 1
	}
	buf = append(buf, rev)
	buf = appendInterval(buf, e.Affirmer)
	buf = binary.AppendUvarint(buf, uint64(len(e.DOM)))
	for _, iid := range e.DOM {
		buf = appendInterval(buf, iid)
	}
	buf = binary.AppendUvarint(buf, uint64(len(e.AIDO)))
	for _, x := range e.AIDO {
		buf = binary.AppendUvarint(buf, uint64(x))
	}
	return buf
}

func appendInterval(buf []byte, iid ids.IntervalID) []byte {
	buf = binary.AppendUvarint(buf, uint64(iid.Proc))
	buf = binary.AppendUvarint(buf, uint64(iid.Seq))
	return binary.AppendUvarint(buf, uint64(iid.Epoch))
}

// EncodeBatch renders a set of exports as one transfer payload (or WAL
// blob): version byte, count uvarint, then each export back to back.
func EncodeBatch(exports []Export) []byte {
	buf := make([]byte, 0, 16+32*len(exports))
	buf = append(buf, exportVersion)
	buf = binary.AppendUvarint(buf, uint64(len(exports)))
	for _, e := range exports {
		buf = AppendExport(buf, e)
	}
	return buf
}

// DecodeBatch parses a batch produced by EncodeBatch. Trailing bytes are
// an error. Decoding never panics on malformed input and never
// allocates more than the declared limits.
func DecodeBatch(data []byte) ([]Export, error) {
	d := exportDecoder{buf: data}
	ver, err := d.byte()
	if err != nil {
		return nil, err
	}
	if ver != exportVersion {
		return nil, fmt.Errorf("aid: decode export: version %d, want %d", ver, exportVersion)
	}
	count, err := d.uv()
	if err != nil {
		return nil, err
	}
	if count > maxExportSet {
		return nil, fmt.Errorf("aid: decode export: batch of %d exceeds limit %d", count, maxExportSet)
	}
	exports := make([]Export, 0, count)
	for i := uint64(0); i < count; i++ {
		e, err := d.export()
		if err != nil {
			return nil, err
		}
		exports = append(exports, e)
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("aid: decode export: %d trailing bytes", len(d.buf))
	}
	return exports, nil
}

// exportDecoder is a bounds-checked cursor over an encoded batch.
type exportDecoder struct {
	buf []byte
}

func (d *exportDecoder) byte() (byte, error) {
	if len(d.buf) == 0 {
		return 0, fmt.Errorf("aid: decode export: truncated")
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b, nil
}

func (d *exportDecoder) uv() (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, fmt.Errorf("aid: decode export: bad uvarint")
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *exportDecoder) interval() (ids.IntervalID, error) {
	proc, err := d.uv()
	if err != nil {
		return ids.IntervalID{}, err
	}
	seq, err := d.uv()
	if err != nil {
		return ids.IntervalID{}, err
	}
	if seq > 0xFFFFFFFF {
		return ids.IntervalID{}, fmt.Errorf("aid: decode export: interval seq %d overflows uint32", seq)
	}
	epoch, err := d.uv()
	if err != nil {
		return ids.IntervalID{}, err
	}
	if epoch > 0xFFFFFFFF {
		return ids.IntervalID{}, fmt.Errorf("aid: decode export: interval epoch %d overflows uint32", epoch)
	}
	return ids.IntervalID{Proc: ids.PID(proc), Seq: uint32(seq), Epoch: uint32(epoch)}, nil
}

func (d *exportDecoder) export() (Export, error) {
	var e Export
	aidV, err := d.uv()
	if err != nil {
		return e, err
	}
	e.AID = ids.AID(aidV)
	st, err := d.byte()
	if err != nil {
		return e, err
	}
	e.State = State(st)
	if e.State < Cold || e.State > False {
		return e, fmt.Errorf("aid: decode export: invalid state %d", st)
	}
	rev, err := d.byte()
	if err != nil {
		return e, err
	}
	if rev > 1 {
		return e, fmt.Errorf("aid: decode export: bad revocable flag %d", rev)
	}
	e.Revocable = rev == 1
	if e.Affirmer, err = d.interval(); err != nil {
		return e, err
	}
	domN, err := d.uv()
	if err != nil {
		return e, err
	}
	if domN > maxExportSet {
		return e, fmt.Errorf("aid: decode export: DOM of %d exceeds limit %d", domN, maxExportSet)
	}
	if domN > 0 {
		e.DOM = make([]ids.IntervalID, domN)
		for i := range e.DOM {
			if e.DOM[i], err = d.interval(); err != nil {
				return e, err
			}
		}
	}
	aidoN, err := d.uv()
	if err != nil {
		return e, err
	}
	if aidoN > maxExportSet {
		return e, fmt.Errorf("aid: decode export: AIDO of %d exceeds limit %d", aidoN, maxExportSet)
	}
	if aidoN > 0 {
		e.AIDO = make([]ids.AID, aidoN)
		for i := range e.AIDO {
			v, err := d.uv()
			if err != nil {
				return e, err
			}
			e.AIDO[i] = ids.AID(v)
		}
	}
	return e, nil
}
