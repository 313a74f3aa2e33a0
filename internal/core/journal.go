package core

import "adcache/internal/stats"

// JournalCap is how many closed windows an AdCache remembers: the last two
// million operations at the paper's 1,000-operation window. The ring is
// preallocated (about 450 KiB), so closing a window allocates nothing.
const JournalCap = 2048

// TuningState is the journal's record of one closed window: its operation
// counts, the learning signal, and the parameters applied with where they
// came from — the calibrated Prior for the window's mix and cache share and
// the agent's Residual around it (chosen minus prior, before hysteresis).
// A window the agent did not see (no lookups, or a pinned controller) has
// Trained false and repeats the rest of the record before it.
type TuningState struct {
	Windows    int64        `json:"windows"` // windows closed, this one included
	AgentSteps int64        `json:"agent_steps"`
	HEstimate  float64      `json:"h_estimate"`
	HSmoothed  float64      `json:"h_smoothed"`
	Reward     float64      `json:"reward"`
	ActorLR    float64      `json:"actor_lr"`
	ActorLoss  float64      `json:"actor_loss"`
	CriticLoss float64      `json:"critic_loss"`
	Params     Params       `json:"params"`
	Prior      Params       `json:"prior"`
	Residual   Params       `json:"residual"`
	Window     stats.Window `json:"window"`
	Trained    bool         `json:"trained"`
}

// journal is the ring of the last JournalCap window records. Record i
// (0-based) has Windows i+1, so a reader resumes from the last Windows it
// saw without searching. Guarded by AdCache.mu.
type journal struct {
	recs [JournalCap]TuningState
	n    int64 // records ever added
}

// add appends r as the next window's record, overwriting the oldest record
// once the ring is full.
func (j *journal) add(r TuningState) {
	r.Windows = j.n + 1
	j.recs[j.n%JournalCap] = r
	j.n++
}

// last returns the newest record, or the zero value before the first.
func (j *journal) last() TuningState {
	if j.n == 0 {
		return TuningState{}
	}
	return j.recs[(j.n-1)%JournalCap]
}

// since copies the retained records with Windows > w, oldest first.
func (j *journal) since(w int64) []TuningState {
	from := max(w, j.n-JournalCap, 0)
	out := make([]TuningState, 0, max(j.n-from, 0))
	for i := from; i < j.n; i++ {
		out = append(out, j.recs[i%JournalCap])
	}
	return out
}

// TuningState returns the record of the last closed window. Before the
// first window closes it is the zero value.
func (a *AdCache) TuningState() TuningState {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.journal.last()
}

// Journal returns the records of the windows closed after window since
// (their Windows > since), oldest first. Only the last JournalCap windows
// are kept: a reader that needs every window drains at least that often
// and checks that the first record's Windows is since+1.
func (a *AdCache) Journal(since int64) []TuningState {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.journal.since(since)
}
