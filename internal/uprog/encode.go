package uprog

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Binary μProgram serialization: the format the SIMDRAM control unit's
// program store holds and the driver ships when installing a new
// operation (paper §3: new operations require no hardware changes —
// exactly because a μProgram is data). The encoding is little-endian:
//
//	magic "SDμP" (4 bytes) | version u8 | name len u8 | name bytes
//	width u8 | dstWidth u8 | numSrc u8 | srcWidths u8×numSrc
//	numScratch u16 | opCount u32
//	per op: kind u8 | payload
//	  AAP:     src ref | ndst u8 | dst refs
//	  AP:      t0 u8 | t1 u8 | t2 u8
//	  MajCopy: t0 u8 | t1 u8 | t2 u8 | ndst u8 | dst refs
//	ref: space u8 | op u8 | idx u16
var magic = [4]byte{'S', 'D', 0xCE, 0xBC} // "SD" + UTF-8 μ

const encodeVersion = 1

// Encode serializes the program.
//
//simdram:testapi the μProgram wire format of the paper's program store, round-tripped in tests
func (p *Program) Encode() ([]byte, error) {
	if len(p.Name) > 255 {
		return nil, fmt.Errorf("uprog: program name too long (%d bytes)", len(p.Name))
	}
	if p.NumSrc > 255 || p.Width > 255 || p.DstWidth > 255 {
		return nil, fmt.Errorf("uprog: program shape exceeds encoding limits")
	}
	if p.NumScratch > 0xFFFF {
		return nil, fmt.Errorf("uprog: scratch count %d exceeds encoding limit", p.NumScratch)
	}
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.WriteByte(encodeVersion)
	buf.WriteByte(byte(len(p.Name)))
	buf.WriteString(p.Name)
	buf.WriteByte(byte(p.Width))
	buf.WriteByte(byte(p.DstWidth))
	buf.WriteByte(byte(p.NumSrc))
	for k := 0; k < p.NumSrc; k++ {
		buf.WriteByte(byte(p.SrcWidth(k)))
	}
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], uint16(p.NumScratch))
	buf.Write(u16[:])
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(p.Ops)))
	buf.Write(u32[:])
	for _, op := range p.Ops {
		buf.WriteByte(byte(op.Kind))
		switch op.Kind {
		case OpAAP:
			if err := encodeRef(&buf, op.Src); err != nil {
				return nil, err
			}
			if err := encodeDsts(&buf, op.Dsts); err != nil {
				return nil, err
			}
		case OpAP:
			buf.WriteByte(byte(op.T[0]))
			buf.WriteByte(byte(op.T[1]))
			buf.WriteByte(byte(op.T[2]))
		case OpMajCopy:
			buf.WriteByte(byte(op.T[0]))
			buf.WriteByte(byte(op.T[1]))
			buf.WriteByte(byte(op.T[2]))
			if err := encodeDsts(&buf, op.Dsts); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("uprog: cannot encode op kind %d", op.Kind)
		}
	}
	return buf.Bytes(), nil
}

func encodeDsts(buf *bytes.Buffer, dsts []Ref) error {
	if len(dsts) == 0 || len(dsts) > 255 {
		return fmt.Errorf("uprog: %d destinations out of encodable range", len(dsts))
	}
	buf.WriteByte(byte(len(dsts)))
	for _, d := range dsts {
		if err := encodeRef(buf, d); err != nil {
			return err
		}
	}
	return nil
}

func encodeRef(buf *bytes.Buffer, r Ref) error {
	if r.Op > 255 || r.Idx > 0xFFFF || r.Op < 0 || r.Idx < 0 {
		return fmt.Errorf("uprog: ref %v out of encodable range", r)
	}
	buf.WriteByte(byte(r.Space))
	buf.WriteByte(byte(r.Op))
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], uint16(r.Idx))
	buf.Write(u16[:])
	return nil
}

// decoder walks the encoded bytes with bounds checking.
type decoder struct {
	b   []byte
	pos int
}

func (d *decoder) u8() (byte, error) {
	if d.pos >= len(d.b) {
		return 0, fmt.Errorf("uprog: truncated program at byte %d", d.pos)
	}
	v := d.b[d.pos]
	d.pos++
	return v, nil
}

func (d *decoder) u16() (uint16, error) {
	if d.pos+2 > len(d.b) {
		return 0, fmt.Errorf("uprog: truncated program at byte %d", d.pos)
	}
	v := binary.LittleEndian.Uint16(d.b[d.pos:])
	d.pos += 2
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if d.pos+4 > len(d.b) {
		return 0, fmt.Errorf("uprog: truncated program at byte %d", d.pos)
	}
	v := binary.LittleEndian.Uint32(d.b[d.pos:])
	d.pos += 4
	return v, nil
}

func (d *decoder) ref() (Ref, error) {
	space, err := d.u8()
	if err != nil {
		return Ref{}, err
	}
	op, err := d.u8()
	if err != nil {
		return Ref{}, err
	}
	idx, err := d.u16()
	if err != nil {
		return Ref{}, err
	}
	if Space(space) > SpaceC1 {
		return Ref{}, fmt.Errorf("uprog: invalid space %d", space)
	}
	return Ref{Space: Space(space), Op: int(op), Idx: int(idx)}, nil
}

// DecodeProgram deserializes a program encoded by Encode.
//
//simdram:testapi the μProgram wire format of the paper's program store, round-tripped in tests
func DecodeProgram(b []byte) (*Program, error) {
	d := &decoder{b: b}
	if len(b) < 4 || !bytes.Equal(b[:4], magic[:]) {
		return nil, fmt.Errorf("uprog: bad magic")
	}
	d.pos = 4
	ver, err := d.u8()
	if err != nil {
		return nil, err
	}
	if ver != encodeVersion {
		return nil, fmt.Errorf("uprog: unsupported version %d", ver)
	}
	nameLen, err := d.u8()
	if err != nil {
		return nil, err
	}
	if d.pos+int(nameLen) > len(b) {
		return nil, fmt.Errorf("uprog: truncated name")
	}
	p := &Program{Name: string(b[d.pos : d.pos+int(nameLen)])}
	d.pos += int(nameLen)
	w, err := d.u8()
	if err != nil {
		return nil, err
	}
	dw, err := d.u8()
	if err != nil {
		return nil, err
	}
	ns, err := d.u8()
	if err != nil {
		return nil, err
	}
	p.Width, p.DstWidth, p.NumSrc = int(w), int(dw), int(ns)
	for k := 0; k < p.NumSrc; k++ {
		sw, err := d.u8()
		if err != nil {
			return nil, err
		}
		p.SrcWidths = append(p.SrcWidths, int(sw))
	}
	scratch, err := d.u16()
	if err != nil {
		return nil, err
	}
	p.NumScratch = int(scratch)
	opCount, err := d.u32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < opCount; i++ {
		kind, err := d.u8()
		if err != nil {
			return nil, err
		}
		var op MicroOp
		op.Kind = OpKind(kind)
		switch op.Kind {
		case OpAAP:
			if op.Src, err = d.ref(); err != nil {
				return nil, err
			}
			if op.Dsts, err = d.dsts(); err != nil {
				return nil, err
			}
		case OpAP, OpMajCopy:
			for j := 0; j < 3; j++ {
				tv, err := d.u8()
				if err != nil {
					return nil, err
				}
				op.T[j] = int(tv)
			}
			if op.Kind == OpMajCopy {
				if op.Dsts, err = d.dsts(); err != nil {
					return nil, err
				}
			}
		default:
			return nil, fmt.Errorf("uprog: op %d: unknown kind %d", i, kind)
		}
		p.Ops = append(p.Ops, op)
	}
	if d.pos != len(b) {
		return nil, fmt.Errorf("uprog: %d trailing bytes", len(b)-d.pos)
	}
	return p, nil
}

func (d *decoder) dsts() ([]Ref, error) {
	n, err := d.u8()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("uprog: zero destinations")
	}
	out := make([]Ref, n)
	for i := range out {
		if out[i], err = d.ref(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
