// Package dot11 implements the subset of IEEE 802.11 needed by the digital
// Marauder's map capture pipeline: MAC addressing, management frame
// encoding/decoding (beacon, probe request, probe response), information
// elements, the CRC-32 frame check sequence, and the 2.4 GHz channel plan
// with its spectral-overlap structure.
//
// Frames produced by Encode round-trip through Decode bit-exactly, and the
// wire format follows the standard closely enough that the frames are
// recognizable to standard tooling when written to pcap files
// (LinkType IEEE802_11).
package dot11

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// MAC is a 48-bit IEEE 802 MAC address.
type MAC [6]byte

// String renders the address in the canonical colon-separated form,
// lower-case hex ("00:1b:2c:3d:4e:5f"). The map publishes one per device
// per frame, so it formats from a digit table rather than through fmt.
func (m MAC) String() string {
	const hexDigits = "0123456789abcdef"
	var b [17]byte
	for i, v := range m {
		if i > 0 {
			b[3*i-1] = ':'
		}
		b[3*i] = hexDigits[v>>4]
		b[3*i+1] = hexDigits[v&0x0f]
	}
	return string(b[:])
}

// Key is the address as a big-endian 48-bit integer. Key order is the
// canonical MAC order: byte order, and so also the order of the
// fixed-width String forms.
func (m MAC) Key() uint64 {
	return uint64(m[0])<<40 | uint64(m[1])<<32 | uint64(m[2])<<24 |
		uint64(m[3])<<16 | uint64(m[4])<<8 | uint64(m[5])
}

// MACFromKey inverts Key. Bits above the low 48 are ignored.
func MACFromKey(k uint64) MAC {
	return MAC{byte(k >> 40), byte(k >> 32), byte(k >> 24), byte(k >> 16), byte(k >> 8), byte(k)}
}

// AppendFromKeys appends the MACs of packed keys to dst, each as
// MACFromKey builds it.
func AppendFromKeys(dst []MAC, keys []uint64) []MAC {
	for _, k := range keys {
		dst = append(dst, MACFromKey(k))
	}
	return dst
}

// ParseMAC parses a colon-separated MAC address.
func ParseMAC(s string) (MAC, error) {
	var m MAC
	n, err := fmt.Sscanf(s, "%02x:%02x:%02x:%02x:%02x:%02x",
		&m[0], &m[1], &m[2], &m[3], &m[4], &m[5])
	if err != nil || n != 6 {
		return MAC{}, fmt.Errorf("dot11: invalid MAC %q", s)
	}
	return m, nil
}

// Broadcast is the all-ones broadcast address used as the destination of
// probe requests.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// FrameType is the 802.11 type field (2 bits).
type FrameType uint8

// Frame types.
const (
	TypeManagement FrameType = 0
	TypeControl    FrameType = 1
	TypeData       FrameType = 2
)

// Subtype is the 802.11 subtype field (4 bits); values are for management
// frames.
type Subtype uint8

// Management frame subtypes used by the capture pipeline.
const (
	SubtypeAssocReq     Subtype = 0
	SubtypeAssocResp    Subtype = 1
	SubtypeProbeRequest Subtype = 4
	SubtypeProbeResp    Subtype = 5
	SubtypeBeacon       Subtype = 8
	SubtypeDeauth       Subtype = 12
)

// String implements fmt.Stringer.
func (s Subtype) String() string {
	switch s {
	case SubtypeAssocReq:
		return "AssocReq"
	case SubtypeAssocResp:
		return "AssocResp"
	case SubtypeProbeRequest:
		return "ProbeReq"
	case SubtypeProbeResp:
		return "ProbeResp"
	case SubtypeBeacon:
		return "Beacon"
	case SubtypeDeauth:
		return "Deauth"
	default:
		return fmt.Sprintf("Subtype(%d)", uint8(s))
	}
}

// Element IDs of the information elements the pipeline understands.
const (
	EIDSSID           = 0
	EIDSupportedRates = 1
	EIDDSParameterSet = 3 // current channel
)

// IE is a type-length-value information element.
type IE struct {
	ID   uint8
	Data []byte
}

// Frame is a decoded 802.11 management frame. Addr1 is the destination,
// Addr2 the source (transmitter), Addr3 the BSSID.
type Frame struct {
	Type     FrameType
	Subtype  Subtype
	Duration uint16
	Addr1    MAC
	Addr2    MAC
	Addr3    MAC
	Seq      uint16 // sequence number (12 bits)
	Frag     uint8  // fragment number (4 bits)

	// Management-frame fixed fields (beacon / probe response only).
	Timestamp      uint64
	BeaconInterval uint16
	Capability     uint16

	// IEs are the information elements in wire order.
	IEs []IE
}

// Decoding errors.
var (
	ErrShortFrame = errors.New("dot11: frame too short")
	ErrBadFCS     = errors.New("dot11: frame check sequence mismatch")
	ErrNotMgmt    = errors.New("dot11: not a management frame")
)

const mgmtHeaderLen = 24
const fixedFieldsLen = 12 // timestamp + beacon interval + capability

// hasFixedFields reports whether the subtype carries the 12-byte fixed
// field block.
func (f *Frame) hasFixedFields() bool {
	return f.Subtype == SubtypeBeacon || f.Subtype == SubtypeProbeResp
}

// SSID returns the SSID element's value and whether one is present.
func (f *Frame) SSID() (string, bool) {
	for _, ie := range f.IEs {
		if ie.ID == EIDSSID {
			return string(ie.Data), true
		}
	}
	return "", false
}

// Channel returns the DS Parameter Set channel and whether one is present.
func (f *Frame) Channel() (int, bool) {
	for _, ie := range f.IEs {
		if ie.ID == EIDDSParameterSet && len(ie.Data) == 1 {
			return int(ie.Data[0]), true
		}
	}
	return 0, false
}

// Encode serializes the frame to wire format including the trailing FCS.
func (f *Frame) Encode() ([]byte, error) {
	if f.Type != TypeManagement {
		return nil, ErrNotMgmt
	}
	size := mgmtHeaderLen
	if f.hasFixedFields() {
		size += fixedFieldsLen
	}
	for _, ie := range f.IEs {
		if len(ie.Data) > 255 {
			return nil, fmt.Errorf("dot11: IE %d data too long (%d bytes)", ie.ID, len(ie.Data))
		}
		size += 2 + len(ie.Data)
	}
	size += 4 // FCS
	buf := make([]byte, 0, size)

	fc := uint16(f.Type)<<2 | uint16(f.Subtype)<<4 // version 0
	buf = binary.LittleEndian.AppendUint16(buf, fc)
	buf = binary.LittleEndian.AppendUint16(buf, f.Duration)
	buf = append(buf, f.Addr1[:]...)
	buf = append(buf, f.Addr2[:]...)
	buf = append(buf, f.Addr3[:]...)
	seqCtl := f.Seq<<4 | uint16(f.Frag&0x0f)
	buf = binary.LittleEndian.AppendUint16(buf, seqCtl)

	if f.hasFixedFields() {
		buf = binary.LittleEndian.AppendUint64(buf, f.Timestamp)
		buf = binary.LittleEndian.AppendUint16(buf, f.BeaconInterval)
		buf = binary.LittleEndian.AppendUint16(buf, f.Capability)
	}
	for _, ie := range f.IEs {
		buf = append(buf, ie.ID, byte(len(ie.Data)))
		buf = append(buf, ie.Data...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf, nil
}

// Decode parses a wire-format frame, verifying the FCS.
func Decode(b []byte) (*Frame, error) {
	if len(b) < mgmtHeaderLen+4 {
		return nil, ErrShortFrame
	}
	payload, fcsBytes := b[:len(b)-4], b[len(b)-4:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(fcsBytes) {
		return nil, ErrBadFCS
	}
	fc := binary.LittleEndian.Uint16(payload[0:2])
	f := &Frame{
		Type:     FrameType(fc >> 2 & 0x3),
		Subtype:  Subtype(fc >> 4 & 0xf),
		Duration: binary.LittleEndian.Uint16(payload[2:4]),
	}
	if f.Type != TypeManagement {
		return nil, ErrNotMgmt
	}
	copy(f.Addr1[:], payload[4:10])
	copy(f.Addr2[:], payload[10:16])
	copy(f.Addr3[:], payload[16:22])
	seqCtl := binary.LittleEndian.Uint16(payload[22:24])
	f.Seq = seqCtl >> 4
	f.Frag = uint8(seqCtl & 0xf)

	rest := payload[mgmtHeaderLen:]
	if f.hasFixedFields() {
		if len(rest) < fixedFieldsLen {
			return nil, ErrShortFrame
		}
		f.Timestamp = binary.LittleEndian.Uint64(rest[0:8])
		f.BeaconInterval = binary.LittleEndian.Uint16(rest[8:10])
		f.Capability = binary.LittleEndian.Uint16(rest[10:12])
		rest = rest[fixedFieldsLen:]
	}
	for len(rest) > 0 {
		if len(rest) < 2 {
			return nil, ErrShortFrame
		}
		id, l := rest[0], int(rest[1])
		if len(rest) < 2+l {
			return nil, ErrShortFrame
		}
		data := make([]byte, l)
		copy(data, rest[2:2+l])
		f.IEs = append(f.IEs, IE{ID: id, Data: data})
		rest = rest[2+l:]
	}
	return f, nil
}

// NewProbeRequest builds a broadcast probe request from src for the given
// SSID ("" for the wildcard directed at any AP).
func NewProbeRequest(src MAC, ssid string, seq uint16) *Frame {
	return &Frame{
		Type:    TypeManagement,
		Subtype: SubtypeProbeRequest,
		Addr1:   Broadcast,
		Addr2:   src,
		Addr3:   Broadcast,
		Seq:     seq,
		IEs: []IE{
			{ID: EIDSSID, Data: []byte(ssid)},
			{ID: EIDSupportedRates, Data: []byte{0x82, 0x84, 0x8b, 0x96}},
		},
	}
}

// NewProbeResponse builds an AP's unicast response to a probe request.
func NewProbeResponse(ap, dst MAC, ssid string, channel int, seq uint16) *Frame {
	return &Frame{
		Type:           TypeManagement,
		Subtype:        SubtypeProbeResp,
		Addr1:          dst,
		Addr2:          ap,
		Addr3:          ap,
		Seq:            seq,
		BeaconInterval: 100,
		Capability:     0x0401,
		IEs: []IE{
			{ID: EIDSSID, Data: []byte(ssid)},
			{ID: EIDSupportedRates, Data: []byte{0x82, 0x84, 0x8b, 0x96}},
			{ID: EIDDSParameterSet, Data: []byte{byte(channel)}},
		},
	}
}

// NewBeacon builds an AP beacon.
func NewBeacon(ap MAC, ssid string, channel int, timestamp uint64, seq uint16) *Frame {
	return &Frame{
		Type:           TypeManagement,
		Subtype:        SubtypeBeacon,
		Addr1:          Broadcast,
		Addr2:          ap,
		Addr3:          ap,
		Seq:            seq,
		Timestamp:      timestamp,
		BeaconInterval: 100,
		Capability:     0x0401,
		IEs: []IE{
			{ID: EIDSSID, Data: []byte(ssid)},
			{ID: EIDSupportedRates, Data: []byte{0x82, 0x84, 0x8b, 0x96}},
			{ID: EIDDSParameterSet, Data: []byte{byte(channel)}},
		},
	}
}
