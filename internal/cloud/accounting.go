// Package cloud wires the paper's Fig. 1 system model: a certificate
// authority, attribute authorities, data owners, data consumers (users) and
// an honest-but-curious cloud server, exchanging keys and ciphertexts. It
// exercises the complete protocol — enrolment, upload in the Fig. 2 record
// format, fine-grained download, and the two-phase attribute revocation
// (Key Update + Data Re-encryption) — and meters every channel so the
// communication-cost table (Table IV) can be measured rather than asserted.
package cloud

import (
	"sort"
	"sync"
	"sync/atomic"

	"maacs/internal/engine"
)

// Channel names the party pair a message travels between, matching the rows
// of the paper's Table IV.
type Channel string

// The four channels of Table IV plus the CA enrolment channel.
const (
	ChanAAUser      Channel = "AA↔User"
	ChanAAOwner     Channel = "AA↔Owner"
	ChanServerUser  Channel = "Server↔User"
	ChanServerOwner Channel = "Server↔Owner"
	ChanCAUser      Channel = "CA↔User"
)

// chanTally is one channel's counters. The cells are atomics so the lock-free
// fetch path never serializes on the meter.
type chanTally struct {
	bytes atomic.Int64
	msgs  atomic.Int64
}

// Accounting tallies bytes and message counts per channel. Safe for
// concurrent use: the channel set is guarded by a RWMutex (there are only
// five channels, created on first touch), while the counters themselves are
// atomic — concurrent Adds on an existing channel take only a read lock.
type Accounting struct {
	mu      sync.RWMutex
	tallies map[Channel]*chanTally
}

// NewAccounting returns an empty meter.
func NewAccounting() *Accounting {
	return &Accounting{tallies: make(map[Channel]*chanTally)}
}

// tally returns the channel's counter cell, creating it on first touch.
func (a *Accounting) tally(ch Channel) *chanTally {
	a.mu.RLock()
	t := a.tallies[ch]
	a.mu.RUnlock()
	if t != nil {
		return t
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if t = a.tallies[ch]; t == nil {
		t = &chanTally{}
		a.tallies[ch] = t
	}
	return t
}

// Add records one message of n bytes on the channel. A nil receiver is a
// no-op so metering is optional everywhere.
func (a *Accounting) Add(ch Channel, n int) {
	if a == nil {
		return
	}
	t := a.tally(ch)
	t.bytes.Add(int64(n))
	t.msgs.Add(1)
}

// Bytes returns the byte total for a channel.
func (a *Accounting) Bytes(ch Channel) int {
	if a == nil {
		return 0
	}
	a.mu.RLock()
	t := a.tallies[ch]
	a.mu.RUnlock()
	if t == nil {
		return 0
	}
	return int(t.bytes.Load())
}

// Messages returns the message count for a channel.
func (a *Accounting) Messages(ch Channel) int {
	if a == nil {
		return 0
	}
	a.mu.RLock()
	t := a.tallies[ch]
	a.mu.RUnlock()
	if t == nil {
		return 0
	}
	return int(t.msgs.Load())
}

// OwnerStats is one data owner's slice of the server's counters: what it
// stored, how much proxy re-encryption its revocations cost the server
// (items, ciphertexts, rows, engine activity including wall time), and how
// many of its requests failed mid-batch. The revocation protocol makes the
// server do per-owner work — Hur & Noh's scaling bottleneck — so the server
// exposes exactly that attribution via Metrics.Owners and the
// `maacs_owner_*` Prometheus families.
type OwnerStats struct {
	// Records is the owner's share of currently stored records (computed at
	// snapshot time).
	Records int `json:"records"`
	// StoreRequests counts the owner's successful uploads.
	StoreRequests uint64 `json:"store_requests"`
	// ReEncryptRequests counts fully committed re-encryption requests;
	// ReEncryptFailures counts requests that failed after validation
	// (committed windows of a failed batch stay in the other counters).
	ReEncryptRequests uint64 `json:"reencrypt_requests"`
	ReEncryptFailures uint64 `json:"reencrypt_failures"`
	// ReEncryptItems counts committed update-info sets.
	ReEncryptItems uint64 `json:"reencrypt_items"`
	// ReEncryptedCiphertexts / ReEncryptedRows total the committed proxy work.
	ReEncryptedCiphertexts uint64 `json:"reencrypted_ciphertexts"`
	ReEncryptedRows        uint64 `json:"reencrypted_rows"`
	// Engine sums the engine.Stats deltas of the owner's committed windows;
	// Engine.WallNs is the owner's total fan-out wall time.
	Engine engine.Stats `json:"engine"`
}

// UserStats is one data consumer's slice of the server's download counters:
// how many whole-record and single-component fetches it issued and how many
// ciphertext/sealed-payload bytes the server returned to it. Downloads are
// the Server↔User channel of Table IV; this is the per-user attribution of
// that traffic, the consumer-side sibling of OwnerStats, exposed via
// Metrics.Users (the JSON body of /metrics only: user IDs are client-chosen,
// so they never become Prometheus labels). Requests that fail (unknown
// record or component) are not metered — the download never happened.
type UserStats struct {
	// RecordFetches counts successful whole-record downloads.
	RecordFetches uint64 `json:"record_fetches"`
	// ComponentFetches counts successful single-component downloads.
	ComponentFetches uint64 `json:"component_fetches"`
	// FetchedBytes totals the ciphertext + sealed payload bytes served.
	FetchedBytes uint64 `json:"fetched_bytes"`
}

// ChannelStats is one channel's tally in an accounting snapshot.
type ChannelStats struct {
	Bytes    int `json:"bytes"`
	Messages int `json:"messages"`
}

// Snapshot returns a copy of every channel's tally — the per-channel rows of
// the /metrics endpoint.
func (a *Accounting) Snapshot() map[Channel]ChannelStats {
	if a == nil {
		return nil
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make(map[Channel]ChannelStats, len(a.tallies))
	for ch, t := range a.tallies {
		out[ch] = ChannelStats{Bytes: int(t.bytes.Load()), Messages: int(t.msgs.Load())}
	}
	return out
}

// Reset zeroes all counters.
func (a *Accounting) Reset() {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.tallies = make(map[Channel]*chanTally)
}

// Channels returns the channels seen so far, sorted.
func (a *Accounting) Channels() []Channel {
	if a == nil {
		return nil
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]Channel, 0, len(a.tallies))
	for ch := range a.tallies {
		out = append(out, ch)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
