package sim

import "fmt"

// OpKind enumerates the phases an initiator core's program is made of.
type OpKind int

const (
	// OpCompute keeps the core busy locally for Cycles cycles.
	OpCompute OpKind = iota
	// OpRead performs a blocking read of Burst words from Target.
	OpRead
	// OpWrite performs a blocking write of Burst words to Target.
	OpWrite
	// OpLock spins (read + backoff) on a semaphore Target until the
	// lock is acquired.
	OpLock
	// OpUnlock releases a semaphore Target (a one-word write).
	OpUnlock
	// OpBarrier signals the interrupt device and blocks until all
	// participants have arrived at the same barrier ID.
	OpBarrier
)

func (k OpKind) String() string {
	switch k {
	case OpCompute:
		return "compute"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpLock:
		return "lock"
	case OpUnlock:
		return "unlock"
	case OpBarrier:
		return "barrier"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Op is one step of an initiator program.
type Op struct {
	Kind     OpKind
	Cycles   int64 // OpCompute: duration
	Target   int   // OpRead/OpWrite/OpLock/OpUnlock: target index; OpBarrier: interrupt device index
	Burst    int64 // OpRead/OpWrite: words transferred
	Critical bool  // marks the transfer as a real-time stream member
	Barrier  int   // OpBarrier: barrier identifier
}

// Compute returns a compute op of the given duration.
func Compute(cycles int64) Op { return Op{Kind: OpCompute, Cycles: cycles} }

// Read returns a blocking read op.
func Read(target int, burst int64) Op { return Op{Kind: OpRead, Target: target, Burst: burst} }

// Write returns a blocking write op.
func Write(target int, burst int64) Op { return Op{Kind: OpWrite, Target: target, Burst: burst} }

// CriticalRead returns a read op flagged as real-time traffic.
func CriticalRead(target int, burst int64) Op {
	return Op{Kind: OpRead, Target: target, Burst: burst, Critical: true}
}

// Lock returns a semaphore-acquire op.
func Lock(semTarget int) Op { return Op{Kind: OpLock, Target: semTarget} }

// Unlock returns a semaphore-release op.
func Unlock(semTarget int) Op { return Op{Kind: OpUnlock, Target: semTarget} }

// Barrier returns a barrier op signalling via the interrupt device.
func Barrier(id, interruptTarget int) Op {
	return Op{Kind: OpBarrier, Barrier: id, Target: interruptTarget}
}
