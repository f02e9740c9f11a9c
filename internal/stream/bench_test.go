package stream_test

import (
	"context"
	"testing"

	"inplacehull/internal/geom"
	"inplacehull/internal/stream"
	"inplacehull/internal/workload"
)

// BenchmarkStream prices the stream layer on the stream-churn shape: the
// 65 536-point disk registration (the workload's PUT), a snapshot read
// with an unmerged pending tail, the 16-point append/delete write pair,
// and a hull-vertex delete that runs the strip repair; then 3-d
// registration and append on an 8 192-point ball. Each write case leaves
// the dataset as it found it, so every iteration measures the same state.
func BenchmarkStream(b *testing.B) {
	ctx := context.Background()
	disk := workload.Disk(1, 65536)
	ball := workload.Ball(1, 8192)
	fresh := workload.Disk(2, 16)
	fresh3 := workload.Ball(2, 16)

	b.Run("Register2", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, _, err := stream.NewStore(stream.Config{}).Register2("d", disk); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("Snapshot2", func(b *testing.B) {
		d := register2(b, disk)
		// 128 appended points stay in the pending tail (it merges past
		// max(64, √n) = 256 points), so the read merges band and tail.
		if _, err := d.Append2(ctx, workload.Disk(3, 128)); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			if _, err := d.Snapshot2(); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("AppendDelete2", func(b *testing.B) {
		d := register2(b, disk)
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			if _, err := d.Append2(ctx, fresh); err != nil {
				b.Fatal(err)
			}
			if _, err := d.Delete2(ctx, fresh); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("VertexDelete2", func(b *testing.B) {
		d := register2(b, disk)
		snap, err := d.Snapshot2()
		if err != nil {
			b.Fatal(err)
		}
		v := []geom.Point{snap.Chain[len(snap.Chain)/2]}
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			delta, err := d.Delete2(ctx, v)
			if err != nil || delta.Fallback != "" {
				b.Fatalf("vertex delete: %v, fallback %q", err, delta.Fallback)
			}
			b.StopTimer()
			if _, err := d.Append2(ctx, v); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})

	b.Run("Register3", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, _, err := stream.NewStore(stream.Config{}).Register3("b", ball); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("Append3", func(b *testing.B) {
		d, _, err := stream.NewStore(stream.Config{}).Register3("b", ball)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			if _, err := d.Append3(ctx, fresh3); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if _, err := d.Delete3(ctx, fresh3); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
}

func register2(b *testing.B, pts []geom.Point) *stream.Dataset {
	d, _, err := stream.NewStore(stream.Config{}).Register2("d", pts)
	if err != nil {
		b.Fatal(err)
	}
	return d
}
