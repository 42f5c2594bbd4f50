package store

import (
	"math/rand"
	"testing"
)

// benchSegmentRows is the segment the seal and materialize benchmarks
// move: the default segment size (one per 2^18 rows).
const benchSegmentRows = 1 << 18

// benchSegment fills an arena with one segment shaped like the generated
// log: batch-contiguous ids (a batch has one task type of ~37, its items
// count up), Zipf-ish workers, starts clustered per batch, durations of
// 0-4,000 s, trust in [0.5, 1], answers repeating in runs of about three.
func benchSegment() *columns {
	rng := rand.New(rand.NewSource(27))
	workers := rand.NewZipf(rng, 1.2, 8, 5000)
	c := &columns{}
	c.grow(benchSegmentRows)
	batch, start := uint32(7000), int64(1_400_000_000)
	for lo := 0; lo < benchSegmentRows; batch++ {
		hi := min(lo+200+rng.Intn(1800), benchSegmentRows)
		taskType, item, answer := uint32(rng.Intn(37)), uint32(rng.Intn(1<<20)), rng.Uint32()>>2
		start += int64(rng.Intn(7200))
		for i := lo; i < hi; i++ {
			if rng.Intn(3) == 0 {
				answer = rng.Uint32() >> 2
			}
			c.batch[i], c.taskType[i], c.item[i] = batch, taskType, item+uint32(i-lo)/3
			c.worker[i] = uint32(workers.Uint64())
			c.start[i] = start + int64(rng.Intn(3600))
			c.dur[i] = int64(rng.Intn(4001))
			c.trust[i] = 0.5 + rng.Float32()/2
			c.answer[i] = answer
		}
		lo = hi
	}
	return c
}

// BenchmarkSealEncode times what a seal spends choosing and building the
// eight column encodings of one segment.
func BenchmarkSealEncode(b *testing.B) {
	c := benchSegment()
	b.ReportAllocs()
	b.ResetTimer()
	var enc SegmentEnc
	for i := 0; i < b.N; i++ {
		enc = encodeSegmentColumns(c)
	}
	if enc.Rows != benchSegmentRows {
		b.Fatalf("encoded %d rows", enc.Rows)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchSegmentRows, "ns/row")
}

// BenchmarkMaterialize times decoding that segment's encodings back into
// raw columns: a repair load, a concat of encoded parts, a lazy fill.
func BenchmarkMaterialize(b *testing.B) {
	c := benchSegment()
	enc := encodeSegmentColumns(c)
	dst := &columns{}
	dst.grow(benchSegmentRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.materializeInto(dst, 0)
	}
	if dst.row(benchSegmentRows-1) != c.row(benchSegmentRows-1) {
		b.Fatal("materialized rows differ")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchSegmentRows, "ns/row")
}
