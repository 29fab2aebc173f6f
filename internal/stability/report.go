package stability

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// Report is one node's answer to a stability sweep: a snapshot of its
// interval event counter, unsettled count, engine quiescence, maximum
// allocated interval epoch, and per-peer wire send/deliver sequence
// state. Two matching sweeps of reports form a valid cut (see ValidCut).
type Report struct {
	Node      int
	ViewEpoch uint64
	Round     uint64
	Sweep     uint8 // 1 or 2
	Events    uint64
	Unsettled int64
	MaxEpoch  uint32
	Quiet     bool

	// Sent[j] is the last wire sequence number this node assigned toward
	// peer j; Delivered[j] is the highest contiguous sequence this node
	// has delivered from peer j. Empty maps mean the deployment has no
	// wire layer (in-process simulation) and the drain check is vacuous.
	Sent      map[int]uint64
	Delivered map[int]uint64
}

// payload kinds of the stability wire frame.
const (
	pkSweep   = 1 // initiator -> member: report yourselves (round, sweep)
	pkReport  = 2 // member -> initiator: Report
	pkAdvance = 3 // initiator -> member: agreed frontier
	pkWant    = 4 // member -> initiator: I am settled with uncovered work
)

func appendUv(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func readUv(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errors.New("stability: short payload")
	}
	return v, b[n:], nil
}

func appendSeqMap(b []byte, m map[int]uint64) []byte {
	b = appendUv(b, uint64(len(m)))
	nodes := make([]int, 0, len(m))
	for n := range m {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	for _, n := range nodes {
		b = appendUv(b, uint64(n))
		b = appendUv(b, m[n])
	}
	return b
}

func readSeqMap(b []byte) (map[int]uint64, []byte, error) {
	cnt, b, err := readUv(b)
	if err != nil {
		return nil, nil, err
	}
	m := make(map[int]uint64, cnt)
	for i := uint64(0); i < cnt; i++ {
		var n, v uint64
		if n, b, err = readUv(b); err != nil {
			return nil, nil, err
		}
		if v, b, err = readUv(b); err != nil {
			return nil, nil, err
		}
		m[int(n)] = v
	}
	return m, b, nil
}

// EncodeSweep encodes a sweep request.
func EncodeSweep(viewEpoch, round uint64, sweep uint8) []byte {
	b := []byte{pkSweep, sweep}
	b = appendUv(b, viewEpoch)
	b = appendUv(b, round)
	return b
}

// EncodeReport encodes a member report.
func EncodeReport(r Report) []byte {
	b := []byte{pkReport, r.Sweep}
	b = appendUv(b, uint64(r.Node))
	b = appendUv(b, r.ViewEpoch)
	b = appendUv(b, r.Round)
	b = appendUv(b, r.Events)
	b = appendUv(b, uint64(r.Unsettled)) // negative would be a bug; reported as huge
	b = appendUv(b, uint64(r.MaxEpoch))
	if r.Quiet {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendSeqMap(b, r.Sent)
	b = appendSeqMap(b, r.Delivered)
	return b
}

// EncodeAdvance encodes an agreed frontier broadcast.
func EncodeAdvance(viewEpoch uint64, frontier map[int]uint32) []byte {
	b := []byte{pkAdvance}
	b = appendUv(b, viewEpoch)
	b = appendUv(b, uint64(len(frontier)))
	nodes := make([]int, 0, len(frontier))
	for n := range frontier {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	for _, n := range nodes {
		b = appendUv(b, uint64(n))
		b = appendUv(b, uint64(frontier[n]))
	}
	return b
}

// EncodeWant encodes a member's demand for a round: one byte.
func EncodeWant() []byte { return []byte{pkWant} }

// Payload is a decoded stability frame.
type Payload struct {
	Kind      int // pkSweep, pkReport, pkAdvance, pkWant
	ViewEpoch uint64
	Round     uint64
	Sweep     uint8
	Report    Report         // pkReport
	Frontier  map[int]uint32 // pkAdvance
}

// Decode parses a stability frame payload.
func Decode(b []byte) (Payload, error) {
	var p Payload
	if len(b) < 1 {
		return p, errors.New("stability: empty payload")
	}
	p.Kind = int(b[0])
	var err error
	switch p.Kind {
	case pkSweep:
		if len(b) < 2 {
			return p, errors.New("stability: short sweep")
		}
		p.Sweep = b[1]
		b = b[2:]
		if p.ViewEpoch, b, err = readUv(b); err != nil {
			return p, err
		}
		if p.Round, _, err = readUv(b); err != nil {
			return p, err
		}
	case pkReport:
		if len(b) < 2 {
			return p, errors.New("stability: short report")
		}
		r := Report{Sweep: b[1]}
		b = b[2:]
		var v uint64
		if v, b, err = readUv(b); err != nil {
			return p, err
		}
		r.Node = int(v)
		if r.ViewEpoch, b, err = readUv(b); err != nil {
			return p, err
		}
		if r.Round, b, err = readUv(b); err != nil {
			return p, err
		}
		if r.Events, b, err = readUv(b); err != nil {
			return p, err
		}
		if v, b, err = readUv(b); err != nil {
			return p, err
		}
		r.Unsettled = int64(v)
		if v, b, err = readUv(b); err != nil {
			return p, err
		}
		r.MaxEpoch = uint32(v)
		if len(b) < 1 {
			return p, errors.New("stability: short report flags")
		}
		r.Quiet = b[0] == 1
		b = b[1:]
		if r.Sent, b, err = readSeqMap(b); err != nil {
			return p, err
		}
		if r.Delivered, _, err = readSeqMap(b); err != nil {
			return p, err
		}
		p.Report = r
		p.ViewEpoch, p.Round = r.ViewEpoch, r.Round
	case pkAdvance:
		b = b[1:]
		if p.ViewEpoch, b, err = readUv(b); err != nil {
			return p, err
		}
		var cnt uint64
		if cnt, b, err = readUv(b); err != nil {
			return p, err
		}
		p.Frontier = make(map[int]uint32, cnt)
		for i := uint64(0); i < cnt; i++ {
			var n, e uint64
			if n, b, err = readUv(b); err != nil {
				return p, err
			}
			if e, b, err = readUv(b); err != nil {
				return p, err
			}
			p.Frontier[int(n)] = uint32(e)
		}
	case pkWant:
	default:
		return p, fmt.Errorf("stability: unknown payload kind %d", p.Kind)
	}
	return p, nil
}

// ValidCut decides whether two report sweeps over the same member set
// form a consistent globally quiescent cut, returning nil when they do
// and an error naming the first obstruction otherwise. It is pure so the
// round agent and the stability oracle apply the identical rule.
//
// The cut is valid iff, for every member of the view:
//
//   - both sweeps carry its report, at the expected view epoch;
//   - the node was quiescent with zero unsettled intervals at both
//     sweeps;
//   - its interval event counter did not move between the sweeps (no
//     open/settle/revoke slipped between them);
//   - it assigned no new wire sequence numbers between the sweeps (no
//     protocol message sent); and
//   - everything it had sent by sweep one was delivered at its peer by
//     sweep two (pairwise seq/ack drain: a dead-but-unevicted member's
//     unacked in-flight frames fail here, so the watermark cannot
//     advance past a corpse until the epoch floor evicts it).
func ValidCut(viewEpoch uint64, members []int, r1, r2 map[int]Report) error {
	for _, n := range members {
		a, ok1 := r1[n]
		b, ok2 := r2[n]
		if !ok1 || !ok2 {
			return fmt.Errorf("member %d missing from sweep (1:%v 2:%v)", n, ok1, ok2)
		}
		if a.ViewEpoch != viewEpoch || b.ViewEpoch != viewEpoch {
			return fmt.Errorf("member %d reported at view %d/%d, cut at view %d", n, a.ViewEpoch, b.ViewEpoch, viewEpoch)
		}
		if !a.Quiet || !b.Quiet {
			return fmt.Errorf("member %d not quiescent (sweep1=%v sweep2=%v)", n, a.Quiet, b.Quiet)
		}
		if a.Unsettled != 0 || b.Unsettled != 0 {
			return fmt.Errorf("member %d has unsettled intervals (sweep1=%d sweep2=%d)", n, a.Unsettled, b.Unsettled)
		}
		if a.Events != b.Events {
			return fmt.Errorf("member %d interval events moved between sweeps (%d -> %d)", n, a.Events, b.Events)
		}
		for _, m := range members {
			if m == n {
				continue
			}
			if a.Sent[m] != b.Sent[m] {
				return fmt.Errorf("member %d sent to %d between sweeps (%d -> %d)", n, m, a.Sent[m], b.Sent[m])
			}
			if got := r2[m].Delivered[n]; got < a.Sent[m] {
				return fmt.Errorf("member %d's frames to %d not drained (sent %d, delivered %d)", n, m, a.Sent[m], got)
			}
		}
	}
	return nil
}

// CutFrontier builds the agreed frontier from a valid cut's second
// sweep: each member's entry is its maximum allocated interval epoch —
// everything it had ever opened was settled at the cut.
func CutFrontier(members []int, r2 map[int]Report) map[int]uint32 {
	f := make(map[int]uint32, len(members))
	for _, n := range members {
		f[n] = r2[n].MaxEpoch
	}
	return f
}
