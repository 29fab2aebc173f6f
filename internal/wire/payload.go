package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"

	"github.com/hope-dist/hope/internal/msg"
)

// The binary payload form (flag 0x02): a one-byte type id, the body's
// length, and a flat body read through the Decoder. Ids are wire
// protocol: once assigned an id is never reused or renumbered
// (TestPayloadIDsStable pins the table).
//
//	1..31    the runtime's own payloads, assigned below
//	32..127  packages of this module, assigned at their RegisterBinaryPayload call
//	128..255 unassigned (left free so the id can grow into a uvarint)
//
// Application types outside the module take the gob form.
const (
	payloadInt     = 1 // varint
	payloadInt64   = 2 // varint
	payloadUint64  = 3 // uvarint
	payloadFloat64 = 4 // IEEE-754 bits, 8 bytes little-endian
	payloadString  = 5 // the body is the string
	payloadBool    = 6 // one byte, 0 or 1
	payloadBytes   = 7 // the body is the slice; nil and empty both decode to nil, as under gob
	payloadMessage = 8 // one encoded message (a Nack's echo)
	payloadBatch   = 9 // count uvarint, then count encoded messages (msg.Batch)

	// firstPackagePayloadID is the lowest id RegisterBinaryPayload accepts.
	firstPackagePayloadID = 32
)

// BinaryPayload is implemented by a payload type that has a binary
// codec. The encoder finds it by interface assertion; the decoder finds
// the matching function by PayloadID in a dense table.
type BinaryPayload interface {
	// PayloadID returns the type's stable id, the same for every value.
	PayloadID() uint8
	// AppendPayload appends the value's body to buf and returns the
	// result. It must not retain buf.
	AppendPayload(buf []byte) []byte
}

// payloadCodec is one row of the id table.
type payloadCodec struct {
	typ    reflect.Type // for diagnostics and the id-stability test; not consulted on the message path
	decode func(*Decoder) (any, error)
}

// payloadCodecs is filled during package initialisation and read-only
// afterwards.
var payloadCodecs [256]payloadCodec

// RegisterBinaryPayload gives sample's concrete type a binary codec:
// from then on every payload of that type is encoded by its
// AppendPayload under its PayloadID, and decode reads the body back. The
// body handed to decode is exactly what AppendPayload wrote; decode must
// consume all of it, and must return the same concrete type as sample.
// The type is also gob-registered, so frames written before it had a
// binary codec still decode.
//
// Call it from a package init, on both ends: the table is not locked. It
// panics on an id outside the package range or already taken.
func RegisterBinaryPayload(sample BinaryPayload, decode func(*Decoder) (any, error)) {
	id := sample.PayloadID()
	if id < firstPackagePayloadID || id > 127 {
		panic(fmt.Sprintf("wire: payload id %d of %T is outside the package range %d..127", id, sample, firstPackagePayloadID))
	}
	setPayloadCodec(id, sample, decode)
	RegisterPayload(sample)
}

func setPayloadCodec(id uint8, sample any, decode func(*Decoder) (any, error)) {
	if c := payloadCodecs[id]; c.decode != nil {
		panic(fmt.Sprintf("wire: payload id %d of %T is already taken by %v", id, sample, c.typ))
	}
	payloadCodecs[id] = payloadCodec{typ: reflect.TypeOf(sample), decode: decode}
}

func init() {
	setPayloadCodec(payloadInt, int(0), func(d *Decoder) (any, error) {
		v, err := d.Int()
		return v, err
	})
	setPayloadCodec(payloadInt64, int64(0), func(d *Decoder) (any, error) {
		v, err := d.Varint()
		return v, err
	})
	setPayloadCodec(payloadUint64, uint64(0), func(d *Decoder) (any, error) {
		v, err := d.Uvarint()
		return v, err
	})
	setPayloadCodec(payloadFloat64, float64(0), func(d *Decoder) (any, error) {
		b, err := d.take(8)
		if err != nil {
			return nil, err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
	})
	setPayloadCodec(payloadString, "", func(d *Decoder) (any, error) {
		return string(d.rest()), nil
	})
	setPayloadCodec(payloadBool, false, func(d *Decoder) (any, error) {
		b, err := d.byte()
		if err != nil || b > 1 {
			return nil, fmt.Errorf("wire: decode: bad bool payload")
		}
		return b == 1, nil
	})
	setPayloadCodec(payloadBytes, []byte(nil), func(d *Decoder) (any, error) {
		return append([]byte(nil), d.rest()...), nil // a copy: the frame buffer is reused
	})
	setPayloadCodec(payloadMessage, (*msg.Message)(nil), func(d *Decoder) (any, error) {
		m, err := d.nested()
		return m, err
	})
	setPayloadCodec(payloadBatch, []*msg.Message(nil), func(d *Decoder) (any, error) {
		count, err := d.Uvarint()
		if err != nil {
			return nil, err
		}
		// Every message occupies at least one byte, so a hostile count
		// cannot size the slice past the body it arrived in.
		if count > uint64(len(d.buf)) {
			return nil, fmt.Errorf("wire: decode: batch of %d in %d bytes", count, len(d.buf))
		}
		batch := make([]*msg.Message, count)
		for i := range batch {
			if batch[i], err = d.nested(); err != nil {
				return nil, err
			}
		}
		return batch, nil
	})
}

// appendBinaryPayload appends v in the binary form if its concrete type
// has a binary codec; ok is false (and buf is returned unchanged) if it
// has none. depth is the nesting level of the message v belongs to.
func appendBinaryPayload(buf []byte, v any, depth int) (out []byte, ok bool, err error) {
	head := len(buf)
	buf = append(buf, payloadBinary, 0) // the id is patched in below
	body := len(buf)
	var id uint8
	switch p := v.(type) {
	case int:
		id, buf = payloadInt, binary.AppendVarint(buf, int64(p))
	case int64:
		id, buf = payloadInt64, binary.AppendVarint(buf, p)
	case uint64:
		id, buf = payloadUint64, binary.AppendUvarint(buf, p)
	case float64:
		id, buf = payloadFloat64, binary.LittleEndian.AppendUint64(buf, math.Float64bits(p))
	case string:
		id, buf = payloadString, append(buf, p...)
	case bool:
		id = payloadBool
		if p {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	case []byte:
		id, buf = payloadBytes, append(buf, p...)
	case *msg.Message:
		id = payloadMessage
		if buf, err = appendNested(buf, p, depth); err != nil {
			return nil, false, err
		}
	case []*msg.Message:
		id = payloadBatch
		buf = binary.AppendUvarint(buf, uint64(len(p)))
		for _, m := range p {
			if buf, err = appendNested(buf, m, depth); err != nil {
				return nil, false, err
			}
		}
	case BinaryPayload:
		id = p.PayloadID()
		if payloadCodecs[id].decode == nil {
			return buf[:head], false, nil // never registered: no peer could read it
		}
		buf = p.AppendPayload(buf)
	default:
		return buf[:head], false, nil
	}
	buf[body-1] = id

	// The length goes in front of the body, which is already in place:
	// open a gap of the length's own width and slide the body up.
	n := len(buf) - body
	if n > maxPayloadLen {
		return nil, false, fmt.Errorf("wire: encode: payload %d bytes exceeds limit %d", n, maxPayloadLen)
	}
	var l [binary.MaxVarintLen32]byte
	k := binary.PutUvarint(l[:], uint64(n))
	buf = append(buf, l[:k]...)
	copy(buf[body+k:], buf[body:body+n])
	copy(buf[body:], l[:k])
	return buf, true, nil
}

// appendNested encodes a message carried inside the payload of a
// depth-level message.
func appendNested(buf []byte, m *msg.Message, depth int) ([]byte, error) {
	if m == nil {
		return nil, fmt.Errorf("wire: encode: nil message in payload")
	}
	if depth >= maxPayloadDepth {
		return nil, fmt.Errorf("wire: encode: messages nested deeper than %d", maxPayloadDepth)
	}
	return appendMessage(buf, m, depth+1)
}

// binaryPayload parses the rest of a binary-form payload: id, length,
// body. The body is read through d itself, narrowed to the body's bytes.
func (d *Decoder) binaryPayload() (any, error) {
	id, err := d.byte()
	if err != nil {
		return nil, err
	}
	body, err := d.payloadBody()
	if err != nil {
		return nil, err
	}
	c := &payloadCodecs[id]
	if c.decode == nil {
		return nil, fmt.Errorf("wire: decode: unknown payload type id %d", id)
	}
	rest := d.buf
	d.buf = body
	v, err := c.decode(d)
	if err != nil {
		return nil, err
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("wire: decode: %d trailing bytes in %v payload", len(d.buf), c.typ)
	}
	d.buf = rest
	return v, nil
}

// rest takes every remaining byte: the whole of a body that is one
// variable-length field.
func (d *Decoder) rest() []byte {
	b := d.buf
	d.buf = nil
	return b
}

// nested parses a message carried inside a payload body.
func (d *Decoder) nested() (*msg.Message, error) {
	if d.depth >= maxPayloadDepth {
		return nil, fmt.Errorf("wire: decode: messages nested deeper than %d", maxPayloadDepth)
	}
	d.depth++
	m, err := d.message()
	d.depth--
	return m, err
}
