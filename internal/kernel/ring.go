package kernel

// RingBuffer holds sample records between the interrupt handler
// (producer) and the profiling tool (consumer), standing in for the
// mmap'd perf ring buffer. When the consumer falls behind, records are
// dropped and counted, mirroring PERF_RECORD_LOST.
//
// Drain always empties the buffer, so it is a slice that grows on
// demand up to its capacity rather than a preallocated ring: an event
// that samples little holds little.
type RingBuffer struct {
	records  []SampleRecord
	capacity int
	// Lost counts records dropped due to a full buffer.
	Lost uint64
}

// NewRingBuffer creates a buffer holding up to capacity records. It
// allocates nothing until the first Push.
func NewRingBuffer(capacity int) *RingBuffer {
	if capacity <= 0 {
		capacity = 1
	}
	return &RingBuffer{capacity: capacity}
}

// Cap returns the buffer capacity in records.
func (r *RingBuffer) Cap() int { return r.capacity }

// Len returns the number of undrained records.
func (r *RingBuffer) Len() int { return len(r.records) }

// Push appends a record, dropping it (and counting the loss) when the
// buffer is full — the consumer must drain, as with the real mmap ring.
func (r *RingBuffer) Push(rec SampleRecord) {
	if len(r.records) == r.capacity {
		r.Lost++
		return
	}
	r.records = append(r.records, rec)
}

// Drain removes and returns all buffered records in arrival order. The
// buffer hands its records over and starts again empty.
func (r *RingBuffer) Drain() []SampleRecord {
	out := r.records
	r.records = nil
	return out
}
