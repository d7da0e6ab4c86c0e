package branch

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/state"
)

type coinFlip struct{}

func (coinFlip) Predict(history uint32, pc int64) (bool, bool) { return pc&4 != 0, false }
func (coinFlip) Update(history uint32, pc int64, taken bool)   {}

// Every built-in engine's tables survive the walk bit for bit; a unit of
// another geometry, a return-stack cursor outside its stack, and a custom
// engine registered by name (whose tables are opaque) are all refused.
func TestStateWalk(t *testing.T) {
	save := func(p *Unit) []byte {
		c := state.NewWriter(1)
		if !p.State(c) {
			t.Fatal("built-in predictor reported unsupported")
		}
		data, err := c.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	restore := func(p *Unit, data []byte) error {
		c := state.NewReader(data, 1)
		p.State(c)
		return c.Close()
	}
	train := func(u *Unit) {
		for i := int64(0); i < 200; i++ {
			pc := 0x4000 + 4*(i%37)
			taken, _ := u.Direction(int(i%2), pc)
			cp := u.SpeculateHistory(int(i%2), taken)
			u.Update(int(i%2), pc, isa.ClassBranch, i%3 != 0, pc+64, cp)
			u.PushReturn(int(i%2), pc+4)
		}
	}

	for _, name := range []string{"gshare", "smiths", "gskewed", "static", "none.noret"} {
		cfg := DefaultConfig(2)
		cfg.Predictor = name
		warm := mustUnit(t, cfg)
		train(warm)
		data := save(warm)
		fresh := mustUnit(t, cfg)
		if err := restore(fresh, data); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(save(fresh)) != string(data) {
			t.Errorf("%s: save -> restore -> save changed the bytes", name)
		}

		small := cfg
		small.PHTEntries, small.HistoryLen, small.BTBEntries = 1024, 10, 128
		if err := restore(mustUnit(t, small), data); err == nil {
			t.Errorf("%s: state restored onto a differently sized unit", name)
		}
		warm.ras[1].top = cfg.RASEntries
		if err := restore(mustUnit(t, cfg), save(warm)); err == nil {
			t.Errorf("%s: return-stack cursor past the stack accepted", name)
		}
	}

	if err := Register("test_coinflip", func(Config) (DirEngine, error) { return coinFlip{}, nil }); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(2)
	cfg.Predictor = "test_coinflip"
	custom := mustUnit(t, cfg)
	if taken, _ := custom.Direction(1, 0x4004); !taken {
		t.Error("custom engine not consulted through the frame")
	}
	if c := state.NewWriter(1); custom.State(c) {
		t.Error("custom direction engine claimed checkpoint support")
	} else if data, _ := c.Bytes(); len(data) > 8 {
		t.Errorf("unsupported predictor still wrote %d bytes", len(data))
	}
}
