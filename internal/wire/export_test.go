package wire

// PayloadTypes reports the binary payload id table as id → Go type, for
// the external tests (which can see the codecs other packages register).
func PayloadTypes() map[uint8]string {
	out := make(map[uint8]string)
	for id, c := range payloadCodecs {
		if c.decode != nil {
			out[uint8(id)] = c.typ.String()
		}
	}
	return out
}
