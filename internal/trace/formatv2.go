package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Binary trace format v2 — compact columnar blocks.
//
// The 32-byte file header is shared with v1 (magic "STBT", version 2,
// numReceivers, numSenders, horizon, numEvents); the event stream is a
// sequence of blocks, each holding up to 65536 start-ordered events:
//
//	block header (24 bytes, little-endian):
//	  count      uint32  events in this block (1..65536)
//	  payloadLen uint32  bytes of payload that follow
//	  firstStart uint64  start cycle of the block's first event
//	  maxEnd     uint64  max(start+len) over the block's events
//	payload (column-grouped):
//	  count-1 uvarint  start deltas (event k starts at start[k-1]+delta)
//	  count   uvarint  lengths
//	  count   uvarint  senders
//	  count   uvarint  receivers
//	  ⌈count/8⌉ bytes  critical bitmap (LSB-first)
//
// Start deltas are unsigned, so a valid v2 stream is start-ordered by
// construction within a block — the property the sweep kernel and the
// image driver need; across blocks the readers check it. firstStart/
// maxEnd summarize the block's cycle range, which is what lets the
// image driver skip blocks that cannot intersect a shard; every block
// is still fully decoded by the shard owning its firstStart, which
// verifies maxEnd against the decoded events, so a corrupt summary is
// an error rather than silently dropped work.
//
// On the benchmark workloads (bursty starts, short grants, few
// senders) the payload averages ≈4–5 bytes/event versus 25 in v1.

const (
	binaryVersionV2 = 2

	// v2BlockMaxEvents caps one block; 65536 events keeps the decode
	// working set near 256 KiB while leaving block headers negligible.
	v2BlockMaxEvents = 1 << 16

	// v2BlockHeaderSize is the fixed block header size.
	v2BlockHeaderSize = 24

	// v2MaxPayload bounds a declared payload length against hostile
	// headers: 10-byte worst-case varints for all four columns plus the
	// bitmap stays well under it.
	v2MaxPayload = 41*v2BlockMaxEvents + 8
)

// v2BlockHeader is one parsed block header.
type v2BlockHeader struct {
	count      uint32
	payloadLen uint32
	firstStart int64
	maxEnd     int64
}

func parseV2BlockHeader(buf *[v2BlockHeaderSize]byte) v2BlockHeader {
	return v2BlockHeader{
		count:      binary.LittleEndian.Uint32(buf[0:]),
		payloadLen: binary.LittleEndian.Uint32(buf[4:]),
		firstStart: int64(binary.LittleEndian.Uint64(buf[8:])),
		maxEnd:     int64(binary.LittleEndian.Uint64(buf[16:])),
	}
}

func (bh *v2BlockHeader) validate(remaining uint64) error {
	if bh.count == 0 || bh.count > v2BlockMaxEvents {
		return fmt.Errorf("trace: v2 block count %d outside 1..%d", bh.count, v2BlockMaxEvents)
	}
	if uint64(bh.count) > remaining {
		return fmt.Errorf("trace: v2 block holds %d events but only %d remain", bh.count, remaining)
	}
	if bh.payloadLen > v2MaxPayload {
		return fmt.Errorf("trace: v2 block payload %d exceeds limit %d", bh.payloadLen, v2MaxPayload)
	}
	if bh.firstStart < 0 || bh.maxEnd <= bh.firstStart {
		return fmt.Errorf("trace: v2 block cycle range [%d,%d) invalid", bh.firstStart, bh.maxEnd)
	}
	return nil
}

// blockDecoder holds the column scratch of the block decoder: one
// block's events as parallel columns plus its critical bitmap
// (LSB-first). Each decoding goroutine (ReadBinary, a shard) keeps one
// and reuses it for every block, so a trace costs one set of columns
// sized to its largest block rather than four fresh columns per block.
// Every column entry below the block's count is written before it is
// read, so a smaller block after a larger one never sees stale values.
type blockDecoder struct {
	starts, lens   []int64
	senders, recvs []uint32
	crit           []byte // the v2 payload's bitmap, or bits
	bits           []byte // bitmap scratch for v1 records
}

// grow sizes the columns for an n-event block.
func (d *blockDecoder) grow(n int) {
	if cap(d.starts) < n {
		d.starts, d.lens = make([]int64, n), make([]int64, n)
		d.senders, d.recvs = make([]uint32, n), make([]uint32, n)
	}
}

// critical reports the critical flag of the block's k-th event.
func (d *blockDecoder) critical(k int) bool { return d.crit[k>>3]&(1<<(k&7)) != 0 }

// v2Columns decodes one v2 block payload into the columns. It performs
// the structural checks — varints in bounds, start deltas and lengths
// that fit an int64, plausible senders and receivers, payload fully
// consumed by the columns and the bitmap — in that order, column by
// column. The per-event span check (v2SpanError) and the maxEnd check
// (v2MaxEndError) are the caller's, in its pass over the columns, as
// is semantic validation (receiver ranges, horizon), matching the v1
// paths.
func (d *blockDecoder) v2Columns(bh v2BlockHeader, payload []byte) error {
	n := int(bh.count)
	if int(bh.payloadLen) != len(payload) {
		return fmt.Errorf("trace: v2 block payload: got %d bytes, header says %d", len(payload), bh.payloadLen)
	}
	d.grow(n)
	starts, lens, senders, recvs := d.starts[:n], d.lens[:n], d.senders[:n], d.recvs[:n]

	starts[0] = bh.firstStart
	pos := 0
	for k := 1; k < n; k++ {
		v, next := uint64(0), pos+1
		if pos < len(payload) && payload[pos] < 0x80 {
			v = uint64(payload[pos])
		} else if v, next = v2Uvarint(payload, pos); next < 0 {
			return v2VarintError(pos)
		}
		pos = next
		s := starts[k-1] + int64(v)
		if s < starts[k-1] { // overflow
			return fmt.Errorf("trace: v2 block: start delta overflows at event %d", k)
		}
		starts[k] = s
	}
	for k := 0; k < n; k++ {
		v, next := uint64(0), pos+1
		if pos < len(payload) && payload[pos] < 0x80 {
			v = uint64(payload[pos])
		} else if v, next = v2Uvarint(payload, pos); next < 0 {
			return v2VarintError(pos)
		}
		pos = next
		lens[k] = int64(v)
		if lens[k] < 0 {
			return fmt.Errorf("trace: v2 block: length overflows at event %d", k)
		}
	}
	for k := 0; k < n; k++ {
		v, next := uint64(0), pos+1
		if pos < len(payload) && payload[pos] < 0x80 {
			v = uint64(payload[pos])
		} else if v, next = v2Uvarint(payload, pos); next < 0 {
			return v2VarintError(pos)
		}
		pos = next
		if v > 1<<31 {
			return fmt.Errorf("trace: v2 block: implausible sender %d", v)
		}
		senders[k] = uint32(v)
	}
	for k := 0; k < n; k++ {
		v, next := uint64(0), pos+1
		if pos < len(payload) && payload[pos] < 0x80 {
			v = uint64(payload[pos])
		} else if v, next = v2Uvarint(payload, pos); next < 0 {
			return v2VarintError(pos)
		}
		pos = next
		if v > 1<<31 {
			return fmt.Errorf("trace: v2 block: implausible receiver %d", v)
		}
		recvs[k] = uint32(v)
	}
	bitmapLen := (n + 7) / 8
	if len(payload)-pos != bitmapLen {
		return fmt.Errorf("trace: v2 block: %d payload bytes after columns, want %d bitmap bytes", len(payload)-pos, bitmapLen)
	}
	d.crit = payload[pos:]
	return nil
}

// v1Columns decodes the fixed-stride records of one v1 index block
// into the columns, with the flag bytes packed into the bitmap. A v1
// record has no structure to check.
func (d *blockDecoder) v1Columns(payload []byte) {
	n := len(payload) / binaryEventSize
	d.grow(n)
	d.bits = growTo(d.bits, (n+7)/8)
	clear(d.bits)
	for k := 0; k < n; k++ {
		rec := payload[k*binaryEventSize : (k+1)*binaryEventSize]
		d.starts[k] = int64(binary.LittleEndian.Uint64(rec[0:]))
		d.lens[k] = int64(binary.LittleEndian.Uint64(rec[8:]))
		d.senders[k] = binary.LittleEndian.Uint32(rec[16:])
		d.recvs[k] = binary.LittleEndian.Uint32(rec[20:])
		if rec[24] != 0 {
			d.bits[k>>3] |= 1 << (k & 7)
		}
	}
	d.crit = d.bits
}

// v2SpanError reports a v2 event whose start plus length overflows.
func v2SpanError(k int) error {
	return fmt.Errorf("trace: v2 block: event %d span overflows", k)
}

// v2MaxEndError reports a v2 block whose decoded max end differs from
// its header's maxEnd (the summary the image driver plans with).
func v2MaxEndError(header, decoded int64) error {
	return fmt.Errorf("trace: v2 block: header maxEnd %d does not match decoded %d", header, decoded)
}

// v2EventStart returns the start of the j-th event of a v2 block by
// summing its first j start deltas: the shard planner's cut inside a
// block. A truncated varint or an overflowing sum yields the block's
// first start instead; the shards that decode the block reject it.
func v2EventStart(payload []byte, firstStart int64, j int) int64 {
	s, pos := firstStart, 0
	for ; j > 0; j-- {
		v, k := binary.Uvarint(payload[pos:])
		if k <= 0 || int64(v) < 0 || s+int64(v) < s {
			return firstStart
		}
		s += int64(v)
		pos += k
	}
	return s
}

// v2Uvarint is the multi-byte half of the block decoder's varint
// reader: the decode loops read one-byte values — nearly every start
// delta, length, sender and receiver — inline and call it for the
// rest. It returns the value and the offset just past it, or a
// negative offset when the varint is truncated or oversized.
func v2Uvarint(payload []byte, pos int) (uint64, int) {
	v, k := binary.Uvarint(payload[pos:])
	if k <= 0 {
		return 0, -1
	}
	return v, pos + k
}

func v2VarintError(pos int) error {
	return fmt.Errorf("trace: v2 block: truncated or oversized varint at payload offset %d", pos)
}

// V2Writer streams a trace into the v2 columnar format. The event
// count must be known up-front (it lives in the file header); Add
// enforces nondecreasing start cycles and Close fails if the count
// does not match. The writer buffers at most one block.
type V2Writer struct {
	bw        *bufio.Writer
	remaining uint64
	lastStart int64
	events    []Event // pending block
	hdrBuf    [v2BlockHeaderSize]byte
	payload   []byte
	err       error
}

// NewV2Writer writes the v2 file header and returns a streaming
// writer. numEvents is the exact number of Add calls to come.
func NewV2Writer(w io.Writer, numReceivers, numSenders int, horizon int64, numEvents uint64) (*V2Writer, error) {
	if numReceivers <= 0 || numSenders <= 0 || horizon <= 0 {
		return nil, fmt.Errorf("trace: v2 writer: invalid shape (%d receivers, %d senders, horizon %d)", numReceivers, numSenders, horizon)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return nil, err
	}
	hdr := []any{
		uint32(binaryVersionV2),
		uint32(numReceivers),
		uint32(numSenders),
		uint64(horizon),
		numEvents,
	}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return nil, err
		}
	}
	return &V2Writer{bw: bw, remaining: numEvents, lastStart: -1}, nil
}

// Add appends one event; events must arrive in nondecreasing start
// order (sort with Trace sorting or feed simulator output directly).
func (w *V2Writer) Add(e Event) error {
	if w.err != nil {
		return w.err
	}
	if w.remaining == 0 {
		return w.fail(fmt.Errorf("trace: v2 writer: more events than the declared count"))
	}
	if e.Start < w.lastStart {
		return w.fail(fmt.Errorf("trace: v2 writer: event starts at %d, before the previous start %d — v2 requires start-ordered events", e.Start, w.lastStart))
	}
	if e.Start < 0 || e.Len <= 0 || e.Sender < 0 || e.Receiver < 0 {
		return w.fail(fmt.Errorf("trace: v2 writer: invalid event [%d,+%d) sender %d receiver %d", e.Start, e.Len, e.Sender, e.Receiver))
	}
	w.lastStart = e.Start
	w.remaining--
	w.events = append(w.events, e)
	if len(w.events) == v2BlockMaxEvents {
		return w.flushBlock()
	}
	return nil
}

func (w *V2Writer) fail(err error) error {
	w.err = err
	return err
}

func (w *V2Writer) flushBlock() error {
	evs := w.events
	n := len(evs)
	if n == 0 {
		return nil
	}
	p := w.payload[:0]
	for k := 1; k < n; k++ {
		p = binary.AppendUvarint(p, uint64(evs[k].Start-evs[k-1].Start))
	}
	maxEnd := int64(0)
	for k := 0; k < n; k++ {
		p = binary.AppendUvarint(p, uint64(evs[k].Len))
		if end := evs[k].End(); end > maxEnd {
			maxEnd = end
		}
	}
	for k := 0; k < n; k++ {
		p = binary.AppendUvarint(p, uint64(evs[k].Sender))
	}
	for k := 0; k < n; k++ {
		p = binary.AppendUvarint(p, uint64(evs[k].Receiver))
	}
	bitmapOff := len(p)
	for k := 0; k < (n+7)/8; k++ {
		p = append(p, 0)
	}
	for k := 0; k < n; k++ {
		if evs[k].Critical {
			p[bitmapOff+k/8] |= 1 << (k % 8)
		}
	}
	w.payload = p

	binary.LittleEndian.PutUint32(w.hdrBuf[0:], uint32(n))
	binary.LittleEndian.PutUint32(w.hdrBuf[4:], uint32(len(p)))
	binary.LittleEndian.PutUint64(w.hdrBuf[8:], uint64(evs[0].Start))
	binary.LittleEndian.PutUint64(w.hdrBuf[16:], uint64(maxEnd))
	if _, err := w.bw.Write(w.hdrBuf[:]); err != nil {
		return w.fail(err)
	}
	if _, err := w.bw.Write(p); err != nil {
		return w.fail(err)
	}
	w.events = w.events[:0]
	return nil
}

// Close flushes the final block and the underlying buffer. It fails if
// fewer events were added than the header declared.
func (w *V2Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.remaining != 0 {
		return w.fail(fmt.Errorf("trace: v2 writer: %d declared events were never added", w.remaining))
	}
	if err := w.flushBlock(); err != nil {
		return err
	}
	if err := w.bw.Flush(); err != nil {
		return w.fail(err)
	}
	return nil
}

// WriteBinaryV2 serializes the trace in the v2 columnar format. Events
// are sorted by start cycle first (the format requires it), so a
// v1→v2 re-encode preserves the logical trace — and therefore its
// analysis fingerprint — but not necessarily the slice order.
func WriteBinaryV2(w io.Writer, tr *Trace) error {
	if err := tr.Validate(); err != nil {
		return err
	}
	events := sortEventsByStart(tr.Events)
	vw, err := NewV2Writer(w, tr.NumReceivers, tr.NumSenders, tr.Horizon, uint64(len(events)))
	if err != nil {
		return err
	}
	for _, e := range events {
		if err := vw.Add(e); err != nil {
			return err
		}
	}
	return vw.Close()
}

// readV2Events reads the block stream after a v2 header, appending
// decoded events to the trace (the ReadBinary half of v2 support).
func readV2Events(br *bufio.Reader, hdr binHeader, tr *Trace) error {
	var hb [v2BlockHeaderSize]byte
	var dec blockDecoder
	payload := make([]byte, 0, 1<<16)
	var done uint64
	lastStart := int64(-1)
	for done < hdr.numEvents {
		if _, err := io.ReadFull(br, hb[:]); err != nil {
			return fmt.Errorf("trace: reading v2 block header at event %d: %w", done, err)
		}
		bh := parseV2BlockHeader(&hb)
		if err := bh.validate(hdr.numEvents - done); err != nil {
			return err
		}
		if bh.firstStart < lastStart {
			return fmt.Errorf("trace: v2 block at event %d starts at %d, before the previous start %d", done, bh.firstStart, lastStart)
		}
		payload = growTo(payload, int(bh.payloadLen))
		if _, err := io.ReadFull(br, payload); err != nil {
			return fmt.Errorf("trace: reading v2 block payload at event %d: %w", done, err)
		}
		if err := dec.v2Columns(bh, payload); err != nil {
			return err
		}
		n := int(bh.count)
		maxEnd := int64(0)
		for k, start := range dec.starts[:n] {
			end := start + dec.lens[k]
			if end < start {
				return v2SpanError(k)
			}
			maxEnd = max(maxEnd, end)
			tr.Events = append(tr.Events, Event{
				Start:    start,
				Len:      dec.lens[k],
				Sender:   int(dec.senders[k]),
				Receiver: int(dec.recvs[k]),
				Critical: dec.critical(k),
			})
		}
		if maxEnd != bh.maxEnd {
			return v2MaxEndError(bh.maxEnd, maxEnd)
		}
		lastStart = dec.starts[n-1]
		done += uint64(bh.count)
	}
	return nil
}

// growTo returns buf resized to n bytes, reallocating if its capacity
// is short (payloadLen is bounded by v2MaxPayload before this runs).
func growTo(buf []byte, n int) []byte {
	if n <= cap(buf) {
		return buf[:n]
	}
	return make([]byte, n)
}

// validateStreamEvent applies Trace.Validate's per-event checks, in
// its order and with its texts. The image driver runs the same checks
// inline over a block's columns and calls it only to build the error
// of an event that fails one.
func validateStreamEvent(i uint64, e Event, nT, nS int, horizon int64) error {
	switch {
	case e.Receiver < 0 || e.Receiver >= nT:
		return fmt.Errorf("trace: event %d receiver %d out of range [0,%d)", i, e.Receiver, nT)
	case e.Sender < 0 || e.Sender >= nS:
		return fmt.Errorf("trace: event %d sender %d out of range [0,%d)", i, e.Sender, nS)
	case e.Len <= 0:
		return fmt.Errorf("trace: event %d has non-positive length %d", i, e.Len)
	case e.Start < 0 || e.Start >= horizon || e.Len > horizon-e.Start:
		return fmt.Errorf("trace: event %d [%d,+%d) outside horizon %d", i, e.Start, e.Len, horizon)
	}
	return nil
}

// parseV2Index walks the block headers of a v2 image (payloads are
// skipped, so this is O(blocks), not O(events)) and returns the block
// index the image driver plans with. body is the image after the
// 32-byte file header.
func parseV2Index(body []byte, hdr binHeader) ([]imageBlock, error) {
	var idx []imageBlock
	pos := 0
	var done uint64
	lastFirst := int64(-1)
	for done < hdr.numEvents {
		if len(body)-pos < v2BlockHeaderSize {
			return nil, fmt.Errorf("trace: v2 image truncated at block header (event %d)", done)
		}
		var hb [v2BlockHeaderSize]byte
		copy(hb[:], body[pos:])
		bh := parseV2BlockHeader(&hb)
		if err := bh.validate(hdr.numEvents - done); err != nil {
			return nil, err
		}
		if bh.firstStart < lastFirst {
			return nil, fmt.Errorf("trace: v2 block at event %d starts at %d, before the previous block's first start %d", done, bh.firstStart, lastFirst)
		}
		lastFirst = bh.firstStart
		pos += v2BlockHeaderSize
		if len(body)-pos < int(bh.payloadLen) {
			return nil, fmt.Errorf("trace: v2 image truncated at block payload (event %d)", done)
		}
		idx = append(idx, imageBlock{off: pos, bh: bh, cumEvents: done})
		pos += int(bh.payloadLen)
		done += uint64(bh.count)
	}
	if pos != len(body) {
		return nil, fmt.Errorf("trace: %d trailing bytes after the last v2 block", len(body)-pos)
	}
	return idx, nil
}
