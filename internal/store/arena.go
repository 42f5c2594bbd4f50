package store

import (
	"bytes"

	"crowdscope/internal/model"
	"crowdscope/internal/par"
)

// This file says what a row and a sealed segment are, once: columns is
// the relation, embedded by every holder of rows (Segment, Store,
// LiveStore); catalogue lists what is known about a holder's sealed row
// spans; seal (rows → catalogue entry), concat (sealed parts → one store)
// and slice (catalogue run → a store sharing the holder's storage) are the
// operations between them.

// columns is the column arena: eight row-aligned slices, one per
// attribute. A row's end is kept as its duration, end − start, the value
// every segment stores; row rebuilds End from it. Rows only ever append; a
// row below a length someone captured is never rewritten, so a holder of
// span headers reads it without a lock while the owner keeps appending.
type columns struct {
	batch    []uint32
	taskType []uint32
	item     []uint32
	worker   []uint32
	start    []int64
	dur      []int64
	trust    []float32
	answer   []uint32
}

// len returns the row count of an arena that holds every column (a
// Store's may be lazily materialized; it counts its rows itself).
func (c *columns) len() int { return len(c.start) }

// push appends one row.
func (c *columns) push(in model.Instance) {
	c.batch = append(c.batch, in.Batch)
	c.taskType = append(c.taskType, in.TaskType)
	c.item = append(c.item, in.Item)
	c.worker = append(c.worker, in.Worker)
	c.start = append(c.start, in.Start)
	c.dur = append(c.dur, in.End-in.Start)
	c.trust = append(c.trust, in.Trust)
	c.answer = append(c.answer, in.Answer)
}

// row reads row i.
func (c *columns) row(i int) model.Instance {
	return model.Instance{
		Batch:    c.batch[i],
		TaskType: c.taskType[i],
		Item:     c.item[i],
		Worker:   c.worker[i],
		Start:    c.start[i],
		End:      c.start[i] + c.dur[i],
		Trust:    c.trust[i],
		Answer:   c.answer[i],
	}
}

// span returns rows [lo, hi) as headers into the same arrays, capacities
// clipped to the span: an append through the result can never write into
// the arena, and appends to the arena land past everything the span sees.
func (c *columns) span(lo, hi int) columns {
	return columns{
		batch:    c.batch[lo:hi:hi],
		taskType: c.taskType[lo:hi:hi],
		item:     c.item[lo:hi:hi],
		worker:   c.worker[lo:hi:hi],
		start:    c.start[lo:hi:hi],
		dur:      c.dur[lo:hi:hi],
		trust:    c.trust[lo:hi:hi],
		answer:   c.answer[lo:hi:hi],
	}
}

// grow extends every column to n rows, zero-filled.
func (c *columns) grow(n int) {
	c.batch = grown(c.batch, n)
	c.taskType = grown(c.taskType, n)
	c.item = grown(c.item, n)
	c.worker = grown(c.worker, n)
	c.start = grown(c.start, n)
	c.dur = grown(c.dur, n)
	c.trust = grown(c.trust, n)
	c.answer = grown(c.answer, n)
}

// copyAt copies src's rows in at row off; the arena must already be grown
// past them.
func (c *columns) copyAt(off int, src *columns) {
	copy(c.batch[off:], src.batch)
	copy(c.taskType[off:], src.taskType)
	copy(c.item[off:], src.item)
	copy(c.worker[off:], src.worker)
	copy(c.start[off:], src.start)
	copy(c.dur[off:], src.dur)
	copy(c.trust[off:], src.trust)
	copy(c.answer[off:], src.answer)
}

// column is one entry of the column table: what the code that walks the
// eight columns — seal, materialize, validate, the block writer and
// reader, a shard's selective read, a store's lazy fill — needs of one,
// whatever its value type.
type column interface {
	// encode sets e's column from the whole of src.
	encode(e *SegmentEnc, src *columns)
	// decode materializes e's column into rows [lo, lo+e.Rows) of dst.
	decode(e *SegmentEnc, dst *columns, lo int)
	validate(e *SegmentEnc, rows int) error
	write(b *bytes.Buffer, e *SegmentEnc)
	read(sr *sliceReader, rows int, e *SegmentEnc) error
	// len and alloc are the raw column's length and its replacement by n
	// zeroed rows; size is the bytes of one raw value.
	len(c *columns) int
	alloc(c *columns, n int)
	size() int64
}

// colDef names one column everywhere it has a name.
type colDef struct {
	mask colMask
	name string
	column
}

// colTable lists the columns in disk order — the order of a block's
// payload and of the footer's per-column extents. The duration column
// keeps the label "end": it is the one a snapshot stores End as.
var colTable = [8]colDef{
	{colMaskBatch, "batch", colOf[uint32]{func(e *SegmentEnc) *EncodedU32 { return &e.Batch }, func(c *columns) *[]uint32 { return &c.batch }}},
	{colMaskTaskType, "tasktype", colOf[uint32]{func(e *SegmentEnc) *EncodedU32 { return &e.TaskType }, func(c *columns) *[]uint32 { return &c.taskType }}},
	{colMaskItem, "item", colOf[uint32]{func(e *SegmentEnc) *EncodedU32 { return &e.Item }, func(c *columns) *[]uint32 { return &c.item }}},
	{colMaskWorker, "worker", colOf[uint32]{func(e *SegmentEnc) *EncodedU32 { return &e.Worker }, func(c *columns) *[]uint32 { return &c.worker }}},
	{colMaskAnswer, "answer", colOf[uint32]{func(e *SegmentEnc) *EncodedU32 { return &e.Answer }, func(c *columns) *[]uint32 { return &c.answer }}},
	{colMaskStart, "start", colOf[int64]{func(e *SegmentEnc) *EncodedI64 { return &e.Start }, func(c *columns) *[]int64 { return &c.start }}},
	{colMaskDuration, "end", colOf[int64]{func(e *SegmentEnc) *EncodedI64 { return &e.EndOff }, func(c *columns) *[]int64 { return &c.dur }}},
	{colMaskTrust, "trust", colOf[float32]{func(e *SegmentEnc) *EncodedF32 { return &e.Trust }, func(c *columns) *[]float32 { return &c.trust }}},
}

// colOf is a column of value type T: where its encoding sits in a
// SegmentEnc and its raw values in an arena.
type colOf[T value] struct {
	enc func(*SegmentEnc) *Encoded[T]
	raw func(*columns) *[]T
}

func (c colOf[T]) encode(e *SegmentEnc, src *columns) { *c.enc(e) = encodeColumn(*c.raw(src)) }
func (c colOf[T]) decode(e *SegmentEnc, dst *columns, lo int) {
	c.enc(e).decodeInto((*c.raw(dst))[lo : lo+e.Rows])
}
func (c colOf[T]) validate(e *SegmentEnc, rows int) error { return c.enc(e).validate(rows) }
func (c colOf[T]) write(b *bytes.Buffer, e *SegmentEnc)   { writeEnc(b, c.enc(e)) }
func (c colOf[T]) read(sr *sliceReader, rows int, e *SegmentEnc) error {
	return readEnc(sr, rows, c.enc(e))
}
func (c colOf[T]) len(cols *columns) int      { return len(*c.raw(cols)) }
func (c colOf[T]) alloc(cols *columns, n int) { *c.raw(cols) = make([]T, n) }
func (c colOf[T]) size() int64                { return int64(traitsOf[T]().refBytes) }

// sealed is one catalogue entry: a segment's position and what sealing
// its rows yields.
type sealed struct {
	info SegmentInfo
	zone ZoneMap
	gran []Granule
	enc  SegmentEnc
}

// sealPart names the derived products of a seal.
type sealPart uint8

const (
	sealZone sealPart = 1 << iota
	sealGran
	sealEnc
	sealAll = sealZone | sealGran | sealEnc
)

// seal computes what sealing rows [info.RowLo, info.RowHi) as one segment
// yields — the granule directory, the zone map it merges to, the column
// encodings — or the wanted part of it. Every derivation from rows comes
// here: Builder.Seal, a live seal and compaction for all of it, recovery
// for the directories no snapshot holds, Store.filled for what a store was
// built or loaded without. A directory brings its zone map, the merge of
// its granules; one wanted alone is folded directly.
func (c *columns) seal(info SegmentInfo, want sealPart) sealed {
	e := sealed{info: info}
	lo, hi := info.RowLo, info.RowHi
	if want&sealGran != 0 {
		e.gran = computeGranules(c, lo, hi)
		e.zone = mergeGranules(e.gran)
	} else if want&sealZone != 0 {
		e.zone = computeZoneMap(c, lo, hi)
	}
	if want&sealEnc != 0 {
		rows := c.span(lo, hi)
		e.enc = encodeSegmentColumns(&rows)
	}
	return e
}

// catalogue lists the sealed row spans of a holder, in row order: segs is
// the layout, and zones, grans and encs — each parallel to it — what is
// known about every span. The LiveStore's lists are always complete. On a
// Store zones are all or nothing (filled computes them on demand), while
// grans and encs each cover a leading run of segments: a live view's
// sealed segments carry the encodings their seal computed and its open
// tail none. filled encodes the segments past the run on demand; grans is
// never computed on demand.
//
// Entries are immutable once listed and lists only grow by appending, so
// a run's headers stay valid whatever the owner does next; anything that
// reorders entries (compaction) builds fresh lists.
type catalogue struct {
	segs  []SegmentInfo
	zones []ZoneMap
	grans [][]Granule
	encs  []SegmentEnc
}

// add appends one fully sealed entry.
func (c *catalogue) add(e sealed) {
	c.segs = append(c.segs, e.info)
	c.zones = append(c.zones, e.zone)
	c.grans = append(c.grans, e.gran)
	c.encs = append(c.encs, e.enc)
}

// nonEmpty returns the indexes of the segments that hold rows: the ones a
// snapshot stores a column block for, in block order.
func (c *catalogue) nonEmpty() []int {
	var idx []int
	for i, si := range c.segs {
		if si.Rows() > 0 {
			idx = append(idx, i)
		}
	}
	return idx
}

// rowEnd returns the row the listed segments end at.
func (c *catalogue) rowEnd() int {
	if n := len(c.segs); n > 0 {
		return c.segs[n-1].RowHi
	}
	return 0
}

// run returns entries [i, j) as headers into the same lists, capacities
// clipped: appending to the result reallocates instead of writing where
// the owner appends. A derived list shorter than the layout yields what it
// has of the run.
func (c *catalogue) run(i, j int) catalogue {
	return catalogue{segs: cut(c.segs, i, j), zones: cut(c.zones, i, j), grans: cut(c.grans, i, j), encs: cut(c.encs, i, j)}
}

func cut[T any](s []T, i, j int) []T {
	i, j = min(i, len(s)), min(j, len(s))
	return s[i:j:j]
}

// appendShifted appends o's entries with their row spans moved by rowOff.
// A derived list is extended only while it is still complete, so a list
// that o lacks, or holds for only a leading run of its entries, stays a
// leading run of the layout instead of drifting out of step.
func (c *catalogue) appendShifted(o catalogue, rowOff int) {
	n := len(c.segs)
	if len(c.zones) == n {
		c.zones = append(c.zones, o.zones...)
	}
	if len(c.grans) == n {
		c.grans = append(c.grans, o.grans...)
	}
	if len(c.encs) == n {
		c.encs = append(c.encs, o.encs...)
	}
	for _, si := range o.segs {
		si.RowLo += rowOff
		si.RowHi += rowOff
		c.segs = append(c.segs, si)
	}
}

// part is one input of concat: rows sealed elsewhere, numbered from zero.
type part struct {
	cols *columns // the raw rows; fewer than rows when only the encodings hold them
	rows int
	cat  catalogue
}

// part returns the store as an input of concat.
func (s *Store) part() part {
	return part{cols: &s.columns, rows: s.rows, cat: s.catalogue}
}

// concat lays parts end to end as one store of numBatches batches: row
// spans shift by the rows before them, batch intervals are already
// global, catalogue entries carry over. Raw rows are copied (in parallel
// over parts) when any part holds them, a part that does not decoding
// straight into place; when every part is encoded-only nothing is
// materialized and the result is encoded-resident like its parts. Zone
// maps survive only if every part brought them; encodings and granule
// directories survive for the leading run of segments that brought them.
func concat(numBatches int, parts []part) *Store {
	out := New(numBatches)
	offs := make([]int, len(parts))
	raw := false
	for i := range parts {
		p := &parts[i]
		offs[i] = out.rows
		out.appendShifted(p.cat, out.rows)
		out.rows += p.rows
		raw = raw || (p.rows > 0 && p.cols.len() == p.rows)
	}
	if len(out.zones) != len(out.segs) {
		out.zones = nil
	}
	if len(out.encs) != len(out.segs) {
		raw = true
	}
	if !raw {
		return out
	}
	out.grow(out.rows)
	par.EachShard(len(parts), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p := &parts[i]
			if p.cols.len() == p.rows {
				out.copyAt(offs[i], p.cols)
				continue
			}
			for k, si := range p.cat.segs {
				p.cat.encs[k].materializeInto(&out.columns, offs[i]+si.RowLo)
			}
		}
	})
	return out
}

// slice returns catalogue entries [i, j) of a holder — its arena and
// catalogue — with the rows from entry i's first up to rowHi, as a Store
// of numBatches batches sharing the holder's storage. The columns are span
// headers (left out when the arena does not hold the rows: the encodings
// do). The whole catalogue from row zero is shared as it stands; an inner
// run is rebased to row zero. The caller stamps the generation.
func slice(cols *columns, numBatches int, cat *catalogue, i, j, rowHi int) *Store {
	rowLo := 0
	if i < j {
		rowLo = cat.segs[i].RowLo
	}
	v := &Store{rows: rowHi - rowLo, numBatches: numBatches, fill: &fillState{}}
	if cols.len() >= rowHi {
		v.columns = cols.span(rowLo, rowHi)
	}
	if i == 0 && j == len(cat.segs) {
		v.catalogue = cat.run(0, j)
		return v
	}
	v.appendShifted(cat.run(i, j), -rowLo)
	return v
}
