package store

import (
	"fmt"
	"sync"

	"crowdscope/internal/model"
)

// A Segment is an immutable, sealed run of instance rows covering a
// half-open interval of batch IDs. Segments are the unit of parallel
// ingest: each generation shard renders its batches into one Builder,
// seals it, and Assemble merges the sealed segments — in canonical batch
// order — into the flat columnar Store every analysis scans.
type Segment struct {
	batchLo, batchHi uint32 // [batchLo, batchHi) batch IDs this segment covers

	batch    []uint32
	taskType []uint32
	item     []uint32
	worker   []uint32
	start    []int64
	end      []int64
	trust    []float32
	answer   []uint32

	// ranges[b-batchLo] is the segment-local [lo,hi) row range of batch b;
	// covered batches with no rows have lo == hi.
	ranges []rowRange

	// gran is the segment's granule directory and zone its merge, the
	// summary of the segment's column values; computed by Seal.
	gran []Granule
	zone ZoneMap

	// enc is the segment's encoded column form; computed by Seal and
	// carried into the assembled store for scan-on-encoded execution and
	// compressed snapshots.
	enc SegmentEnc
}

// Len returns the number of rows in the segment.
func (g *Segment) Len() int { return len(g.start) }

// BatchInterval returns the [lo,hi) batch-ID interval the segment covers.
func (g *Segment) BatchInterval() (lo, hi uint32) { return g.batchLo, g.batchHi }

// Row materializes segment-local row i as an Instance.
func (g *Segment) Row(i int) model.Instance {
	return model.Instance{
		Batch:    g.batch[i],
		TaskType: g.taskType[i],
		Item:     g.item[i],
		Worker:   g.worker[i],
		Start:    g.start[i],
		End:      g.end[i],
		Trust:    g.trust[i],
		Answer:   g.answer[i],
	}
}

// A Builder accumulates rows for one shard of batches and seals them into
// an immutable Segment. Builders are not safe for concurrent use; the
// parallelism model is one builder per goroutine.
type Builder struct {
	seg    *Segment
	cur    int // index into seg.ranges of the open batch, -1 when none
	sealed bool
}

// NewBuilder returns a builder for the batch-ID interval [batchLo, batchHi).
func NewBuilder(batchLo, batchHi uint32) *Builder {
	if batchHi < batchLo {
		panic(fmt.Sprintf("store: builder interval [%d,%d) inverted", batchLo, batchHi))
	}
	return &Builder{
		seg: &Segment{
			batchLo: batchLo,
			batchHi: batchHi,
			ranges:  make([]rowRange, batchHi-batchLo),
		},
		cur: -1,
	}
}

// BeginBatch marks the start of batchID's rows; all Append calls until the
// next BeginBatch belong to it. The batch must lie inside the builder's
// interval.
func (b *Builder) BeginBatch(batchID uint32) {
	if b.sealed {
		panic("store: BeginBatch on sealed builder")
	}
	if batchID < b.seg.batchLo || batchID >= b.seg.batchHi {
		panic(fmt.Sprintf("store: batch %d outside builder interval [%d,%d)", batchID, b.seg.batchLo, b.seg.batchHi))
	}
	n := int32(len(b.seg.start))
	b.cur = int(batchID - b.seg.batchLo)
	b.seg.ranges[b.cur] = rowRange{Lo: n, Hi: n}
}

// Append adds one instance row to the currently open batch.
func (b *Builder) Append(in model.Instance) {
	if b.sealed {
		panic("store: Append on sealed builder")
	}
	if b.cur < 0 {
		panic("store: Append without BeginBatch")
	}
	g := b.seg
	g.batch = append(g.batch, in.Batch)
	g.taskType = append(g.taskType, in.TaskType)
	g.item = append(g.item, in.Item)
	g.worker = append(g.worker, in.Worker)
	g.start = append(g.start, in.Start)
	g.end = append(g.end, in.End)
	g.trust = append(g.trust, in.Trust)
	g.answer = append(g.answer, in.Answer)
	g.ranges[b.cur].Hi = int32(len(g.start))
}

// Len returns the number of rows appended so far.
func (b *Builder) Len() int { return b.seg.Len() }

// Seal freezes the builder's rows into an immutable Segment, computing
// its granule directory, zone map and column encodings. The builder must
// not be used afterwards.
func (b *Builder) Seal() *Segment {
	if b.sealed {
		panic("store: Seal on sealed builder")
	}
	b.sealed = true
	g := b.seg
	g.gran = computeGranules(g.batch, g.taskType, g.item, g.worker, g.answer, g.start, g.end, g.trust, 0, g.Len())
	g.zone = mergeGranules(g.gran)
	g.enc = encodeSegmentColumns(g.batch, g.taskType, g.item, g.worker, g.answer, g.start, g.end, g.trust)
	return g
}

// Enc returns the segment's encoded column form (computed at Seal).
func (g *Segment) Enc() *SegmentEnc { return &g.enc }

// SegmentInfo describes one sealed segment's position inside an assembled
// store: its row span and the batch-ID interval it covers.
type SegmentInfo struct {
	RowLo, RowHi     int    // [RowLo, RowHi) rows
	BatchLo, BatchHi uint32 // [BatchLo, BatchHi) batch IDs
}

// Rows returns the number of rows in the segment.
func (si SegmentInfo) Rows() int { return si.RowHi - si.RowLo }

// Assemble merges sealed segments into a Store with numBatches batches.
// Segments must cover ascending, non-overlapping batch intervals; batches
// not covered by any segment stay empty. Row order in the result is the
// canonical batch-contiguous order: all rows of segment k precede all rows
// of segment k+1, and within a segment rows keep their builder order.
// Column data is copied into flat arrays (one goroutine per segment), so
// the returned store scans exactly like a monolithic one.
func Assemble(numBatches int, segs []*Segment) (*Store, error) {
	prevHi := uint32(0)
	for i, g := range segs {
		if g == nil {
			return nil, fmt.Errorf("store: segment %d is nil", i)
		}
		if g.batchLo < prevHi && i > 0 {
			return nil, fmt.Errorf("store: segment %d batch interval [%d,%d) overlaps or precedes previous (hi %d)",
				i, g.batchLo, g.batchHi, prevHi)
		}
		if int(g.batchHi) > numBatches {
			return nil, fmt.Errorf("store: segment %d batch interval [%d,%d) exceeds %d batches",
				i, g.batchLo, g.batchHi, numBatches)
		}
		prevHi = g.batchHi
	}

	s := New(numBatches)
	s.segs = make([]SegmentInfo, len(segs))
	s.zones = make([]ZoneMap, len(segs))
	s.grans = make([][]Granule, len(segs))
	s.encs = make([]SegmentEnc, len(segs))
	off := 0
	for i, g := range segs {
		s.segs[i] = SegmentInfo{RowLo: off, RowHi: off + g.Len(), BatchLo: g.batchLo, BatchHi: g.batchHi}
		s.zones[i] = g.zone
		s.grans[i] = g.gran
		s.encs[i] = g.enc
		for j, rr := range g.ranges {
			if rr.Hi > rr.Lo {
				s.ranges[g.batchLo+uint32(j)] = rowRange{Lo: rr.Lo + int32(off), Hi: rr.Hi + int32(off)}
			}
		}
		off += g.Len()
	}
	s.rows = off
	growColumns(s, s.rows)
	var wg sync.WaitGroup
	for i, g := range segs {
		wg.Add(1)
		go func(g *Segment, off int) {
			defer wg.Done()
			copy(s.batch[off:], g.batch)
			copy(s.taskType[off:], g.taskType)
			copy(s.item[off:], g.item)
			copy(s.worker[off:], g.worker)
			copy(s.start[off:], g.start)
			copy(s.end[off:], g.end)
			copy(s.trust[off:], g.trust)
			copy(s.answer[off:], g.answer)
		}(g, s.segs[i].RowLo)
	}
	wg.Wait()
	return s, nil
}

// Segments returns the segment layout of the store. Stores built through
// the direct Append path report a single implicit segment spanning
// everything.
func (s *Store) Segments() []SegmentInfo {
	if len(s.segs) > 0 {
		return s.segs
	}
	if s.Len() == 0 {
		return nil
	}
	return []SegmentInfo{{RowLo: 0, RowHi: s.Len(), BatchLo: 0, BatchHi: uint32(s.NumBatches())}}
}

// NumSegments returns the number of explicit segments (0 for stores built
// through the direct Append path).
func (s *Store) NumSegments() int { return len(s.segs) }
