package service

import "sync"

// hub fans each live job's event stream out to its subscribers. A job's
// topic opens when the job is admitted (or re-queued at startup) and
// closes at its terminal state (or when the daemon drains), so a client
// that follows a queued job waits for its events instead of getting an
// empty, already-closed stream. The replay-then-follow handoff is
// atomic under the hub lock: a
// subscriber first receives every event already on disk (the topic's
// flush callback makes the trace file current before the read), then
// its channel, registered under the same critical section, receives
// everything after — no event can fall between the two.
//
// Slow subscribers are disconnected rather than buffered without bound
// (the admission-control stance applied to streaming): their channel is
// closed, and the client reconnects with Last-Event-ID to resume from
// the durable log.
type hub struct {
	mu     sync.Mutex
	topics map[string]*topic
}

type topic struct {
	subs map[chan []byte]struct{}
	// flush forces the runner's buffered trace writer to disk (without
	// fsync) so a replay read observes every published event; nil while
	// the job is queued.
	flush func() error
}

const subscriberBuffer = 256

func newHub() *hub {
	return &hub{topics: make(map[string]*topic)}
}

// open registers the topic of a job entering the queue; an existing
// topic is kept.
func (h *hub) open(jobID string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.topics[jobID] == nil {
		h.topics[jobID] = &topic{subs: make(map[chan []byte]struct{})}
	}
}

// attach hands a running job's trace flush to the topic its admission
// opened, keeping the subscribers that joined while the job was queued.
func (h *hub) attach(jobID string, flush func() error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if t := h.topics[jobID]; t != nil {
		t.flush = flush
	}
}

// publish delivers one encoded event line to the job's subscribers.
// The line must not be mutated afterwards.
func (h *hub) publish(jobID string, line []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	t := h.topics[jobID]
	if t == nil {
		return
	}
	for ch := range t.subs {
		select {
		case ch <- line:
		default:
			// Lagging subscriber: disconnect, it resumes from the log.
			delete(t.subs, ch)
			close(ch)
		}
	}
}

// closeTopic tears a job's topic down at its terminal state (or a drain),
// closing every subscriber channel (the handler then drains the durable
// log and ends the stream).
func (h *hub) closeTopic(jobID string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	t := h.topics[jobID]
	if t == nil {
		return
	}
	delete(h.topics, jobID)
	for ch := range t.subs {
		close(ch)
	}
}

// closeAll tears every topic down (daemon shutdown).
func (h *hub) closeAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for id, t := range h.topics {
		delete(h.topics, id)
		for ch := range t.subs {
			close(ch)
		}
	}
}

// subscribe atomically replays the job's durable events after `after`
// and registers a live channel. When the job has no live topic the
// channel is nil and the replayed slice is complete as of the read.
func (h *hub) subscribe(jobID string, after int, replay func(after int) ([]Event, error)) ([]Event, chan []byte, func(), error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	t := h.topics[jobID]
	if t != nil && t.flush != nil {
		if err := t.flush(); err != nil {
			return nil, nil, nil, err
		}
	}
	events, err := replay(after)
	if err != nil {
		return nil, nil, nil, err
	}
	if t == nil {
		return events, nil, func() {}, nil
	}
	ch := make(chan []byte, subscriberBuffer)
	t.subs[ch] = struct{}{}
	cancel := func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		// The topic may have been closed (and the channel with it)
		// between the subscriber's exit and this cancel.
		if cur := h.topics[jobID]; cur == t {
			if _, ok := t.subs[ch]; ok {
				delete(t.subs, ch)
				close(ch)
			}
		}
	}
	return events, ch, cancel, nil
}
