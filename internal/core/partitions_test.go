package core

import "testing"

// TestDeclaredPartitionsHold runs a busy multithreaded machine and checks
// every identity in CounterPartitions against the final snapshot.
func TestDeclaredPartitionsHold(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.FetchThreads = 2
	p := MustNew(cfg, buildPrograms(t, 4, 13))
	s := p.Run(20_000, 1_000_000)
	for _, v := range s.PartitionViolations() {
		t.Errorf("partition broken: %s", v)
	}
	if s.Cycles == 0 {
		t.Fatal("machine never ran")
	}
}

// TestPartitionTableResolves guards the declaration tables against typos
// at runtime too: every name must resolve on a zero Stats value without
// panicking, and a zero value trivially satisfies every identity.
func TestPartitionTableResolves(t *testing.T) {
	if v := (Stats{}).PartitionViolations(); v != nil {
		t.Errorf("zero Stats violates partitions: %v", v)
	}
}
