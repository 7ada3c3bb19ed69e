package metrics

import (
	"sync"
	"sync/atomic"
	"testing"
)

type counters struct {
	Alpha, Beta, Gamma int64
}

func TestLoadAddEach(t *testing.T) {
	var total counters
	Add(&total, counters{1, 2, 3})
	Add(&total, Load(&counters{10, 20, 30}))
	if total != (counters{11, 22, 33}) {
		t.Errorf("Add/Load = %+v, want {11 22 33}", total)
	}
	var got []string
	var sum int64
	Each(&total, func(name string, v int64) {
		got = append(got, name)
		sum += v
	})
	if len(got) != 3 || got[0] != "Alpha" || got[1] != "Beta" || got[2] != "Gamma" || sum != 66 {
		t.Errorf("Each visited %v (sum %d), want [Alpha Beta Gamma] (sum 66)", got, sum)
	}
}

// TestLoadWhileCounting: Load may read counters other goroutines are
// bumping atomically (run under -race).
func TestLoadWhileCounting(t *testing.T) {
	const bumps = 2000
	var live counters
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < bumps; i++ {
			atomic.AddInt64(&live.Beta, 1)
		}
	}()
	for i := 0; i < 100; i++ {
		if s := Load(&live); s.Alpha != 0 || s.Gamma != 0 || s.Beta > bumps {
			t.Errorf("Load mid-count = %+v", s)
		}
	}
	wg.Wait()
	if s := Load(&live); s != (counters{Beta: bumps}) {
		t.Errorf("Load after counting = %+v, want Beta %d", s, bumps)
	}
}

func TestRejectsNonCounterFields(t *testing.T) {
	type mixed struct {
		N int64
		S string
	}
	defer func() {
		if recover() == nil {
			t.Error("Each accepted a struct with a string field")
		}
	}()
	Each(&mixed{}, func(string, int64) {})
}
