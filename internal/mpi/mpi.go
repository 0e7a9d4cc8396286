// Package mpi is an in-process message-passing runtime with MPI-flavored
// semantics: a fixed-size world of ranks (goroutines), blocking tagged
// point-to-point Send/Recv matched by (source, tag), and the collectives
// the paper's framework uses (Barrier, Bcast, Allgather, Allreduce,
// Alltoall). Payloads are gob-encoded, which both enforces value semantics
// (no accidental sharing across "processes") and lets the runtime account
// for communication volume the way a real interconnect would.
//
// It substitutes for MPI on Cooley/Mira in the paper's distributed
// framework; the framework code is structured exactly as the MPI program
// would be.
//
// Unlike classic fail-stop MPI, the runtime is failure-aware: Run marks a
// rank that returns (with or without an error) so that peers blocked in
// Recv or a collective on a message that can no longer arrive observe
// ErrRankFailed instead of deadlocking. Deadline-aware receives
// (RecvTimeout, TryRecv) and a fault-injection hook on the send path
// (SetInjector, with capped exponential-backoff retries on injected drops)
// support the fault-tolerant execution mode of internal/pipeline.
package mpi

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// AnySource matches messages from any rank in Recv.
const AnySource = -1

// Sentinel errors surfaced by the failure-aware receive paths.
var (
	// ErrRankFailed reports that a rank this operation depends on has
	// exited (with or without an error) and the awaited message can no
	// longer arrive.
	ErrRankFailed = errors.New("mpi: rank failed")
	// ErrTimeout reports that a deadline-aware receive expired.
	ErrTimeout = errors.New("mpi: receive timed out")
	// ErrMessageLost reports that a send was dropped by the fault
	// injector on every retry attempt.
	ErrMessageLost = errors.New("mpi: message lost")
	// ErrWorldChanged reports that a tolerant receive was woken by a
	// change in world membership (a rank failed or exited) rather than by
	// a message; the caller should consult FailedRanks/Alive and decide.
	ErrWorldChanged = errors.New("mpi: world membership changed")
)

// RankError attributes a communication failure to a specific peer rank.
// Every failure-aware path that knows which rank broke an operation —
// point-to-point receives, collectives (Barrier, Bcast, Gather, ...),
// terminally dropped sends, and decode failures — wraps its error in a
// RankError so callers can report *who* failed, not just that something
// did. Extract it with FailedRank.
type RankError struct {
	Rank int
	Err  error
}

func (e *RankError) Error() string { return e.Err.Error() }

func (e *RankError) Unwrap() error { return e.Err }

// FailedRank returns the rank err attributes a failure to, when the error
// chain carries one.
func FailedRank(err error) (int, bool) {
	var re *RankError
	if errors.As(err, &re) {
		return re.Rank, true
	}
	return 0, false
}

// internal tag namespace for collectives; user tags must be >= 0.
const (
	tagBarrier = -(1 + iota)
	tagBcast
	tagGather
	tagAllgather
	tagAlltoall
	tagReduce
)

// rank lifecycle states.
const (
	stateAlive  int32 = iota
	stateDone         // returned from Run's body without error
	stateFailed       // returned with an error (or marked via MarkFailed)
)

const (
	defaultMaxRetries = 5
	retryBackoffBase  = 200 * time.Microsecond
	retryBackoffLimit = 10 * time.Millisecond
)

// SendVerdict is a fault injector's decision for one delivery attempt.
type SendVerdict struct {
	// Drop discards this attempt; the sender backs off and retries.
	Drop bool
	// Delay postpones delivery by this duration (ignored when Drop).
	Delay time.Duration
}

// Injector intercepts message transmission for fault injection. It is
// consulted once per delivery attempt and must be safe for concurrent use
// by all ranks.
type Injector interface {
	SendVerdict(src, dst, tag, attempt, bytes int) SendVerdict
}

type envelope struct {
	src  int
	tag  int
	data []byte
	// pooled marks data as an exclusively-owned pool-backed buffer that
	// decodeFrom returns to the codec pool after decoding. Payloads shared
	// across receivers (collective broadcasts) are never pooled.
	pooled bool
}

type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []envelope
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(e envelope) {
	m.mu.Lock()
	m.queue = append(m.queue, e)
	m.mu.Unlock()
	m.cond.Broadcast()
}

// World is a communicator universe created by NewWorld.
type World struct {
	size      int
	boxes     []*mailbox
	bytesSent []atomic.Int64
	msgsSent  []atomic.Int64
	collSeq   []int64 // per-rank collective sequence numbers

	states   []atomic.Int32 // rank lifecycle (stateAlive/Done/Failed)
	inFlight []atomic.Int64 // per-source delayed messages not yet delivered
	epoch    atomic.Uint64  // bumped on every membership change (death or exit)

	failMu   sync.Mutex
	failErrs map[int]error

	injMu    sync.Mutex
	injector Injector
}

// NewWorld creates a world with the given number of ranks.
func NewWorld(size int) *World {
	w := &World{
		size:      size,
		boxes:     make([]*mailbox, size),
		bytesSent: make([]atomic.Int64, size),
		msgsSent:  make([]atomic.Int64, size),
		collSeq:   make([]int64, size),
		states:    make([]atomic.Int32, size),
		inFlight:  make([]atomic.Int64, size),
		failErrs:  make(map[int]error),
	}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	return w
}

// SetInjector installs a fault injector on the world's send path (nil
// removes it). Intended to be set before ranks start.
func (w *World) SetInjector(in Injector) {
	w.injMu.Lock()
	w.injector = in
	w.injMu.Unlock()
}

func (w *World) getInjector() Injector {
	w.injMu.Lock()
	defer w.injMu.Unlock()
	return w.injector
}

// MarkFailed records that a rank has failed with the given cause and wakes
// every blocked receiver so it can observe ErrRankFailed instead of
// deadlocking. Run calls this automatically when a rank's body returns an
// error.
func (w *World) MarkFailed(rank int, cause error) {
	w.failMu.Lock()
	if _, ok := w.failErrs[rank]; !ok && cause != nil {
		w.failErrs[rank] = cause
	}
	w.failMu.Unlock()
	w.states[rank].Store(stateFailed)
	w.epoch.Add(1)
	w.wakeAll()
}

func (w *World) markDone(rank int) {
	w.states[rank].Store(stateDone)
	w.epoch.Add(1)
	w.wakeAll()
}

// FailureEpoch returns a counter that increments on every world membership
// change (a rank failing or exiting cleanly). Tolerant receivers snapshot
// it and pass it to RecvTolerant, which wakes with ErrWorldChanged the
// moment the epoch moves — the failure-aware alternative to polling
// FailedRanks on a timer.
func (w *World) FailureEpoch() uint64 { return w.epoch.Load() }

func (w *World) wakeAll() {
	for _, m := range w.boxes {
		m.mu.Lock()
		m.mu.Unlock() //nolint:staticcheck // pair ensures waiters are parked
		m.cond.Broadcast()
	}
}

// FailedRanks returns the ranks currently marked failed, in order.
func (w *World) FailedRanks() []int {
	var out []int
	for r := range w.states {
		if w.states[r].Load() == stateFailed {
			out = append(out, r)
		}
	}
	return out
}

func (w *World) failureOf(rank int) error {
	w.failMu.Lock()
	cause := w.failErrs[rank]
	w.failMu.Unlock()
	if cause != nil {
		return &RankError{Rank: rank, Err: fmt.Errorf("%w: rank %d: %v", ErrRankFailed, rank, cause)}
	}
	return &RankError{Rank: rank, Err: fmt.Errorf("%w: rank %d exited", ErrRankFailed, rank)}
}

func (w *World) totalInFlight() int64 {
	var t int64
	for i := range w.inFlight {
		t += w.inFlight[i].Load()
	}
	return t
}

// take blocks until a message matching (src, tag) is queued at rank me, a
// dependency failure is detected, or the deadline (if non-zero) expires.
// Queued messages always win over failure detection: a message sent before
// its sender died remains deliverable, like bytes buffered in a real
// interconnect.
//
// Failure semantics: for a specific src, the take fails with ErrRankFailed
// as soon as src is no longer alive (and nothing is queued or in flight
// from it). For AnySource the take fails if any peer has failed or every
// peer has exited — unless tolerant is set, in which case failures are
// ignored and the caller is expected to bound the wait with a deadline and
// inspect FailedRanks itself (the recovery executor's monitoring mode).
func (w *World) take(me, src, tag int, deadline time.Time, tolerant bool) (envelope, error) {
	m := w.boxes[me]
	hasDeadline := !deadline.IsZero()
	if hasDeadline {
		if d := time.Until(deadline); d > 0 {
			t := time.AfterFunc(d, func() {
				m.mu.Lock()
				m.mu.Unlock() //nolint:staticcheck // park barrier before broadcast
				m.cond.Broadcast()
			})
			defer t.Stop()
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for i, e := range m.queue {
			if (src == AnySource || e.src == src) && e.tag == tag {
				m.queue = append(m.queue[:i], m.queue[i+1:]...)
				return e, nil
			}
		}
		if !tolerant {
			if src != AnySource {
				if src != me && w.states[src].Load() != stateAlive && w.inFlight[src].Load() == 0 {
					return envelope{}, fmt.Errorf("recv tag %d: %w", tag, w.failureOf(src))
				}
			} else {
				failed, allGone := -1, true
				for r := 0; r < w.size; r++ {
					if r == me {
						continue
					}
					switch w.states[r].Load() {
					case stateFailed:
						failed = r
					case stateAlive:
						allGone = false
					}
				}
				if failed >= 0 {
					return envelope{}, fmt.Errorf("recv tag %d (any source): %w", tag, w.failureOf(failed))
				}
				if allGone && w.size > 1 && w.totalInFlight() == 0 {
					return envelope{}, fmt.Errorf("recv tag %d (any source): all peers exited: %w", tag, ErrRankFailed)
				}
			}
		}
		if hasDeadline && !time.Now().Before(deadline) {
			return envelope{}, fmt.Errorf("recv tag %d from %d: %w", tag, src, ErrTimeout)
		}
		m.cond.Wait()
	}
}

// takeMulti blocks until a message whose tag is in tags is queued at rank
// me, the world's failure epoch moves past epoch, or the deadline (if
// non-zero) expires — in that priority order. Queued messages always win:
// a frame sent before its sender died remains deliverable. It never fails
// on peer death itself (tolerant by construction); the epoch wakeup hands
// membership changes to the caller as ErrWorldChanged plus the new epoch,
// so recovery logic runs exactly once per change instead of on poll ticks.
func (w *World) takeMulti(me int, tags []int, epoch uint64, deadline time.Time) (envelope, uint64, error) {
	m := w.boxes[me]
	hasDeadline := !deadline.IsZero()
	if hasDeadline {
		if d := time.Until(deadline); d > 0 {
			t := time.AfterFunc(d, func() {
				m.mu.Lock()
				m.mu.Unlock() //nolint:staticcheck // park barrier before broadcast
				m.cond.Broadcast()
			})
			defer t.Stop()
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for i, e := range m.queue {
			for _, t := range tags {
				if e.tag == t {
					m.queue = append(m.queue[:i], m.queue[i+1:]...)
					return e, epoch, nil
				}
			}
		}
		if now := w.epoch.Load(); now != epoch {
			return envelope{}, now, fmt.Errorf("recv (multi-tag): %w", ErrWorldChanged)
		}
		if hasDeadline && !time.Now().Before(deadline) {
			return envelope{}, epoch, fmt.Errorf("recv (multi-tag): %w", ErrTimeout)
		}
		m.cond.Wait()
	}
}

// Comm is one rank's handle on the world.
type Comm struct {
	world      *World
	rank       int
	maxRetries int
}

// Comm returns the communicator for a rank.
func (w *World) Comm(rank int) *Comm {
	return &Comm{world: w, rank: rank, maxRetries: defaultMaxRetries}
}

// RunEach executes f concurrently on every rank of this world and returns
// each rank's error, indexed by rank. A rank whose body returns an error
// is marked failed (waking any peer blocked on it with ErrRankFailed); a
// rank that returns nil is marked done, so peers waiting on messages it
// will never send also unblock instead of deadlocking.
func (w *World) RunEach(f func(c *Comm) error) []error {
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			err := f(w.Comm(r))
			errs[r] = err
			if err != nil {
				w.MarkFailed(r, err)
			} else {
				w.markDone(r)
			}
		}(r)
	}
	wg.Wait()
	return errs
}

// Run executes f on every rank of this world and returns the first error.
func (w *World) Run(f func(c *Comm) error) error {
	for r, err := range w.RunEach(f) {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

// Run executes f concurrently on every rank of a fresh world of the given
// size and waits for all to finish, returning the first error.
func Run(size int, f func(c *Comm) error) error {
	return NewWorld(size).Run(f)
}

// RunEach is like Run but returns every rank's error indexed by rank.
func RunEach(size int, f func(c *Comm) error) []error {
	return NewWorld(size).RunEach(f)
}

// Rank returns this communicator's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// FailedRanks returns the ranks currently marked failed.
func (c *Comm) FailedRanks() []int { return c.world.FailedRanks() }

// FailureEpoch returns the world's current membership-change counter.
func (c *Comm) FailureEpoch() uint64 { return c.world.FailureEpoch() }

// Alive reports whether rank is still running (not done, not failed).
func (c *Comm) Alive(rank int) bool {
	return rank >= 0 && rank < c.world.size && c.world.states[rank].Load() == stateAlive
}

// RankFailure returns the failure error recorded for rank (an error chain
// carrying ErrRankFailed and a RankError), whether the rank failed or
// exited cleanly. It reports the cause even for done ranks, so callers can
// attribute work lost to a clean early exit the same way.
func (c *Comm) RankFailure(rank int) error {
	if rank < 0 || rank >= c.world.size {
		return fmt.Errorf("mpi: invalid rank %d", rank)
	}
	return c.world.failureOf(rank)
}

// SetMaxSendRetries sets how many times this rank's sends are retried when
// the fault injector drops them (negative values are ignored).
func (c *Comm) SetMaxSendRetries(n int) {
	if n >= 0 {
		c.maxRetries = n
	}
}

// BytesSent returns the total bytes this rank has sent so far.
func (c *Comm) BytesSent() int64 { return c.world.bytesSent[c.rank].Load() }

// TotalBytes returns the bytes sent across all ranks.
func (w *World) TotalBytes() int64 {
	var t int64
	for i := range w.bytesSent {
		t += w.bytesSent[i].Load()
	}
	return t
}

// TotalMessages returns the number of messages sent across all ranks.
func (w *World) TotalMessages() int64 {
	var t int64
	for i := range w.msgsSent {
		t += w.msgsSent[i].Load()
	}
	return t
}

// encode produces a wire message (format byte + payload, see codec.go):
// hot payload shapes take the typed fast path, everything else falls back
// to gob. With pooled set the buffer is drawn from the codec pool — only
// valid for point-to-point messages, whose single receiver releases it
// after decode.
func encode(v any, pooled bool) ([]byte, error) {
	var buf []byte
	if pooled {
		buf = getBuf()
	}
	if out, handled, err := encodeFast(buf, v); handled || err != nil {
		return out, err
	}
	bb := bytes.NewBuffer(append(buf, fmtGob))
	if err := gob.NewEncoder(bb).Encode(v); err != nil {
		return nil, err
	}
	return bb.Bytes(), nil
}

func decode(data []byte, v any) error {
	if len(data) == 0 {
		// Match the pre-codec failure mode for empty payloads (gob EOF).
		return gob.NewDecoder(bytes.NewReader(nil)).Decode(v)
	}
	if data[0] == fmtGob {
		return gob.NewDecoder(bytes.NewReader(data[1:])).Decode(v)
	}
	return decodeFast(data[0], data[1:], v)
}

// decodeFrom wraps decode failures with the message's origin, the
// operation it arrived under, and the target type, so a tag collision or
// type mismatch is diagnosable instead of a bare "gob: type mismatch".
// Pool-backed buffers are returned to the codec pool once decoded.
func decodeFrom(e envelope, op string, v any) error {
	err := decode(e.data, v)
	if e.pooled {
		releaseBuf(e.data)
	}
	if err != nil {
		return &RankError{Rank: e.src, Err: fmt.Errorf("mpi: %s: decoding message from rank %d into %T: %w", op, e.src, v, err)}
	}
	return nil
}

// sendRaw delivers data to dst, consulting the fault injector per attempt
// and retrying dropped attempts with capped exponential backoff. Every
// attempt is accounted as wire traffic. pooled flags data as an
// exclusively-owned codec-pool buffer: the receiver recycles it after
// decode, and a terminally dropped send recycles it here.
func (c *Comm) sendRaw(dst, tag int, data []byte, pooled bool) error {
	w := c.world
	inj := w.getInjector()
	attempts := c.maxRetries + 1
	backoff := retryBackoffBase
	for a := 0; a < attempts; a++ {
		w.bytesSent[c.rank].Add(int64(len(data)))
		w.msgsSent[c.rank].Add(1)
		var v SendVerdict
		if inj != nil {
			v = inj.SendVerdict(c.rank, dst, tag, a, len(data))
		}
		if v.Drop {
			if a == attempts-1 {
				break
			}
			time.Sleep(backoff)
			backoff *= 2
			if backoff > retryBackoffLimit {
				backoff = retryBackoffLimit
			}
			continue
		}
		e := envelope{src: c.rank, tag: tag, data: data, pooled: pooled}
		if v.Delay > 0 {
			w.inFlight[c.rank].Add(1)
			time.AfterFunc(v.Delay, func() {
				w.boxes[dst].put(e)
				w.inFlight[c.rank].Add(-1)
			})
		} else {
			w.boxes[dst].put(e)
		}
		return nil
	}
	if pooled {
		releaseBuf(data)
	}
	return &RankError{Rank: dst, Err: fmt.Errorf("mpi: send to rank %d tag %d dropped after %d attempts: %w",
		dst, tag, attempts, ErrMessageLost)}
}

// Send gob-encodes v and delivers it to rank dst with the given tag
// (tag >= 0). It does not block on the receiver (buffered semantics).
func (c *Comm) Send(dst, tag int, v any) error {
	if tag < 0 {
		return fmt.Errorf("mpi: user tags must be >= 0, got %d", tag)
	}
	if dst < 0 || dst >= c.world.size {
		return fmt.Errorf("mpi: invalid destination rank %d", dst)
	}
	data, err := encode(v, true)
	if err != nil {
		return err
	}
	return c.sendRaw(dst, tag, data, true)
}

// Recv blocks until a message with the given source (or AnySource) and tag
// arrives, decodes it into v (a pointer), and returns the actual source.
// If the awaited rank exits first (or, for AnySource, any peer fails), it
// returns an error satisfying errors.Is(err, ErrRankFailed). The receive
// buffer is the caller's: decoding may reuse the capacity of the slice v
// points to, so it must not share a backing array with data another rank
// reads or writes (separate MPI processes never can).
func (c *Comm) Recv(src, tag int, v any) (int, error) {
	if tag < 0 {
		return 0, fmt.Errorf("mpi: user tags must be >= 0, got %d", tag)
	}
	e, err := c.world.take(c.rank, src, tag, time.Time{}, false)
	if err != nil {
		return 0, fmt.Errorf("mpi: %w", err)
	}
	return e.src, decodeFrom(e, fmt.Sprintf("recv tag %d", tag), v)
}

// RecvTimeout is Recv with a deadline: it returns an error satisfying
// errors.Is(err, ErrTimeout) if no matching message arrives in time. For a
// specific source the failure semantics match Recv (fail fast on a dead
// rank); for AnySource, peer failures do NOT abort the wait — the caller
// holds the deadline and is expected to consult FailedRanks, which is what
// the pipeline's recovery coordinator does while monitoring heartbeats.
func (c *Comm) RecvTimeout(src, tag int, v any, timeout time.Duration) (int, error) {
	if tag < 0 {
		return 0, fmt.Errorf("mpi: user tags must be >= 0, got %d", tag)
	}
	e, err := c.world.take(c.rank, src, tag, time.Now().Add(timeout), src == AnySource)
	if err != nil {
		return 0, fmt.Errorf("mpi: %w", err)
	}
	return e.src, decodeFrom(e, fmt.Sprintf("recv tag %d", tag), v)
}

// Message is an undelivered payload returned by RecvTolerant: the caller
// learns (Src, Tag) first and then decodes into the right type with
// Decode. Decode releases the underlying pooled buffer and must be called
// exactly once (a Message that is dropped without Decode leaks its buffer
// back to the GC, which is safe but defeats pooling).
type Message struct {
	Src int
	Tag int
	env envelope
}

// Decode deserializes the message payload into v (a pointer).
func (m *Message) Decode(v any) error {
	return decodeFrom(m.env, fmt.Sprintf("recv tag %d", m.Tag), v)
}

// RecvTolerant blocks until a message bearing any tag in tags arrives from
// any source, the world's failure epoch moves past epoch (ErrWorldChanged,
// with the new epoch returned so the caller re-arms), or timeout expires
// (ErrTimeout). timeout < 0 blocks indefinitely — safe because membership
// changes wake the call; timeout == 0 is a non-blocking poll. Peer death
// never aborts the wait with ErrRankFailed: this is the monitoring-mode
// receive for coordinators that own recovery themselves.
func (c *Comm) RecvTolerant(tags []int, epoch uint64, timeout time.Duration) (*Message, uint64, error) {
	if len(tags) == 0 {
		return nil, epoch, fmt.Errorf("mpi: RecvTolerant requires at least one tag")
	}
	for _, t := range tags {
		if t < 0 {
			return nil, epoch, fmt.Errorf("mpi: user tags must be >= 0, got %d", t)
		}
	}
	var deadline time.Time
	if timeout >= 0 {
		deadline = time.Now().Add(timeout)
	}
	e, ep, err := c.world.takeMulti(c.rank, tags, epoch, deadline)
	if err != nil {
		return nil, ep, fmt.Errorf("mpi: %w", err)
	}
	return &Message{Src: e.src, Tag: e.tag, env: e}, ep, nil
}

// TryRecv is a non-blocking Recv: it returns ok=false when no matching
// message is queued. A dead specific source still reports ErrRankFailed.
func (c *Comm) TryRecv(src, tag int, v any) (int, bool, error) {
	if tag < 0 {
		return 0, false, fmt.Errorf("mpi: user tags must be >= 0, got %d", tag)
	}
	e, err := c.world.take(c.rank, src, tag, time.Now(), src == AnySource)
	if err != nil {
		if errors.Is(err, ErrTimeout) {
			return 0, false, nil
		}
		return 0, false, fmt.Errorf("mpi: %w", err)
	}
	return e.src, true, decodeFrom(e, fmt.Sprintf("recv tag %d", tag), v)
}

// nextCollTag returns a fresh internal tag for a collective; each rank
// calls collectives in the same order (SPMD), so sequence numbers line up.
func (c *Comm) nextCollTag(base int) int {
	seq := c.world.collSeq[c.rank]
	c.world.collSeq[c.rank]++
	// Fold the sequence into the tag space below `base` (all negative).
	return base - 8*int(seq)
}

// Barrier blocks until every rank has entered it. It fails with
// ErrRankFailed if a participant dies first.
func (c *Comm) Barrier() error {
	tag := c.nextCollTag(tagBarrier)
	// Dissemination-free simple barrier: gather-to-0 then broadcast.
	if c.rank == 0 {
		for i := 1; i < c.world.size; i++ {
			if _, err := c.world.take(0, AnySource, tag, time.Time{}, false); err != nil {
				return fmt.Errorf("mpi: barrier: %w", err)
			}
		}
		for i := 1; i < c.world.size; i++ {
			if err := c.sendRaw(i, tag, nil, false); err != nil {
				return fmt.Errorf("mpi: barrier: %w", err)
			}
		}
		return nil
	}
	if err := c.sendRaw(0, tag, nil, false); err != nil {
		return fmt.Errorf("mpi: barrier: %w", err)
	}
	if _, err := c.world.take(c.rank, 0, tag, time.Time{}, false); err != nil {
		return fmt.Errorf("mpi: barrier: %w", err)
	}
	return nil
}

// Bcast broadcasts *v from root to all ranks (v must be a pointer; on
// non-root ranks it is overwritten). As with Recv, each rank's *v is its
// own receive buffer and decoding may reuse its capacity.
func (c *Comm) Bcast(root int, v any) error {
	tag := c.nextCollTag(tagBcast)
	if c.rank == root {
		data, err := encode(v, false)
		if err != nil {
			return err
		}
		for i := 0; i < c.world.size; i++ {
			if i != root {
				if err := c.sendRaw(i, tag, data, false); err != nil {
					return fmt.Errorf("mpi: bcast: %w", err)
				}
			}
		}
		return nil
	}
	e, err := c.world.take(c.rank, root, tag, time.Time{}, false)
	if err != nil {
		return fmt.Errorf("mpi: bcast: %w", err)
	}
	return decodeFrom(e, "bcast", v)
}

// Allgather collects one value from every rank and returns the full slice
// (indexed by rank) on every rank. Implemented as gather-to-0 + broadcast,
// the way the paper uses MPI_Allgather for timing exchange.
func Allgather[T any](c *Comm, v T) ([]T, error) {
	tag := c.nextCollTag(tagAllgather)
	w := c.world
	if c.rank == 0 {
		out := make([]T, w.size)
		out[0] = v
		for i := 1; i < w.size; i++ {
			e, err := w.take(0, AnySource, tag, time.Time{}, false)
			if err != nil {
				return nil, fmt.Errorf("mpi: allgather: %w", err)
			}
			var tv T
			if err := decodeFrom(e, "allgather", &tv); err != nil {
				return nil, err
			}
			out[e.src] = tv
		}
		data, err := encode(out, false)
		if err != nil {
			return nil, err
		}
		for i := 1; i < w.size; i++ {
			if err := c.sendRaw(i, tag-1, data, false); err != nil {
				return nil, fmt.Errorf("mpi: allgather: %w", err)
			}
		}
		return out, nil
	}
	data, err := encode(v, true)
	if err != nil {
		return nil, err
	}
	if err := c.sendRaw(0, tag, data, true); err != nil {
		return nil, fmt.Errorf("mpi: allgather: %w", err)
	}
	e, err := w.take(c.rank, 0, tag-1, time.Time{}, false)
	if err != nil {
		return nil, fmt.Errorf("mpi: allgather: %w", err)
	}
	var out []T
	if err := decodeFrom(e, "allgather", &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Gather collects one value from every rank at root; non-root ranks
// receive nil.
func Gather[T any](c *Comm, root int, v T) ([]T, error) {
	tag := c.nextCollTag(tagGather)
	if c.rank == root {
		out := make([]T, c.world.size)
		out[root] = v
		for i := 0; i < c.world.size-1; i++ {
			e, err := c.world.take(root, AnySource, tag, time.Time{}, false)
			if err != nil {
				return nil, fmt.Errorf("mpi: gather: %w", err)
			}
			if err := decodeFrom(e, "gather", &out[e.src]); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	data, err := encode(v, true)
	if err != nil {
		return nil, err
	}
	if err := c.sendRaw(root, tag, data, true); err != nil {
		return nil, fmt.Errorf("mpi: gather: %w", err)
	}
	return nil, nil
}

// AllreduceFloat64 returns the elementwise reduction of v across all
// ranks.
func AllreduceFloat64(c *Comm, v []float64, op func(a, b float64) float64) ([]float64, error) {
	all, err := Allgather(c, v)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(v))
	copy(out, all[0])
	for r := 1; r < len(all); r++ {
		for i := range out {
			out[i] = op(out[i], all[r][i])
		}
	}
	return out, nil
}

// Alltoall delivers send[i] to rank i and returns the values received from
// every rank (indexed by source). send must have length Size().
func Alltoall[T any](c *Comm, send []T) ([]T, error) {
	if len(send) != c.world.size {
		return nil, fmt.Errorf("mpi: alltoall send length %d != size %d", len(send), c.world.size)
	}
	tag := c.nextCollTag(tagAlltoall)
	for dst := 0; dst < c.world.size; dst++ {
		if dst == c.rank {
			continue
		}
		data, err := encode(send[dst], true)
		if err != nil {
			return nil, err
		}
		if err := c.sendRaw(dst, tag, data, true); err != nil {
			return nil, fmt.Errorf("mpi: alltoall: %w", err)
		}
	}
	out := make([]T, c.world.size)
	out[c.rank] = send[c.rank]
	for i := 0; i < c.world.size-1; i++ {
		e, err := c.world.take(c.rank, AnySource, tag, time.Time{}, false)
		if err != nil {
			return nil, fmt.Errorf("mpi: alltoall: %w", err)
		}
		if err := decodeFrom(e, "alltoall", &out[e.src]); err != nil {
			return nil, err
		}
	}
	return out, nil
}
