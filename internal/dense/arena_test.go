package dense

import (
	"runtime"
	"sync"
	"testing"
)

// TestArenaSurvivesCollection: a released buffer is still in the arena after
// two collections, which would have emptied the standard library's pool (its
// victim cache goes on the second), so a run that follows a burst of other
// garbage finds it.
func TestArenaSurvivesCollection(t *testing.T) {
	s := GetBuf(777)
	PutBuf(s)
	runtime.GC()
	runtime.GC()
	got := GetBuf(777)
	defer PutBuf(got)
	if &got[0] != &s[0] {
		t.Fatal("the buffer released before two collections did not come back")
	}
}

func retainedNow() int { return int(retained.Load()) }

// TestArenaRetentionCeiling: the free lists never hold more than
// maxRetainedBytes, a release past it drops to the collector, and a buffer
// above the largest class, or of a capacity no class has, is never retained.
func TestArenaRetentionCeiling(t *testing.T) {
	const n = 1 << 16 // 512 KiB a buffer
	bufs := make([][]float64, maxRetainedBytes/(8*n)+1)
	for i := range bufs {
		bufs[i] = GetBuf(n)
	}
	before := retainedNow()
	for _, s := range bufs {
		PutBuf(s)
		if r := retainedNow(); r > maxRetainedBytes {
			t.Fatalf("the arena retains %d bytes, ceiling %d", r, maxRetainedBytes)
		}
	}
	kept := (retainedNow() - before) / (8 * n)
	for range kept { // hand back what this test added
		GetBuf(n)
	}
	if kept == len(bufs) {
		t.Fatalf("all %d buffers were retained, %d bytes past the ceiling", kept, 8*n*kept-maxRetainedBytes)
	}

	before = retainedNow()
	PutBuf(make([]float64, 0, 1<<(maxBufClass+1)))
	PutBuf(make([]float64, 100))
	if r := retainedNow(); r != before {
		t.Fatalf("a buffer above the largest class or of no class's capacity was retained (%d → %d bytes)", before, r)
	}
}

// TestArenaOneOwner: goroutines drawing buffers and matrices from the arena
// at once never hold the same one; each stamps what it holds, yields, and
// finds its stamp intact. Run it under -race.
func TestArenaOneOwner(t *testing.T) {
	const goroutines, rounds = 8, 2000
	var wg sync.WaitGroup
	for g := 1; g <= goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				s := GetBuf(1 + (g*r)%300)
				m := GetMatrixUninitElem(1+r%5, g, Real)
				for i := range s {
					s[i] = float64(g)
				}
				for i := range m.Data {
					m.Data[i] = -float64(g)
				}
				runtime.Gosched()
				for i := range s {
					if s[i] != float64(g) {
						t.Errorf("goroutine %d: its buffer was written by goroutine %g", g, s[i])
						return
					}
				}
				for i := range m.Data {
					if m.Data[i] != -float64(g) || m.Cols != g {
						t.Errorf("goroutine %d: its matrix was taken by another owner", g)
						return
					}
				}
				PutBuf(s)
				PutMatrix(m)
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkArenaParallel: eight goroutines per core each take a matrix and a
// pack-buffer-sized scratch from the arena and give both back — the traffic
// of an engine's local product, without the product.
func BenchmarkArenaParallel(b *testing.B) {
	b.SetParallelism(8)
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			m := GetMatrixUninitElem(2+i%7, 3+i%5, Real)
			s := GetBuf(64 + i%200)
			m.Data[0] = s[0]
			PutBuf(s)
			PutMatrix(m)
		}
	})
}

// TestReserveCountsAgainstBudget reserves bytes beside the lists, wants a
// reservation past the budget refused and uncounted, and a release to return
// the arena to where it was.
func TestReserveCountsAgainstBudget(t *testing.T) {
	before := retainedNow()
	if !Reserve(1000) || retainedNow() != before+1000 {
		t.Fatalf("a 1000-byte reservation: retained %d, want %d", retainedNow(), before+1000)
	}
	if Reserve(maxRetainedBytes) || retainedNow() != before+1000 {
		t.Fatalf("a reservation past the budget was taken: retained %d", retainedNow())
	}
	if !Reserve(-1000) || retainedNow() != before {
		t.Fatalf("after the release the arena retains %d, want %d", retainedNow(), before)
	}
}
