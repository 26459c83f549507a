// Package cellstore is the durable, content-addressed store behind the
// experiment engine's in-process memo: one file per finished cell, keyed
// by the (machine-config hash, workload, stream fingerprint, seed, insts)
// identity of the cell, so a killed campaign resumes with only its
// unfinished cells re-simulated.
//
// The store is deliberately ignorant of the simulator: entries carry an
// opaque JSON payload (portlint's layerimports analyzer forbids this
// package from importing internal/{core,cpu,mem}), and the experiments
// layer owns the encoding of results and cell failures. What the store
// does own is durability and integrity:
//
//   - Crash-safe writes: every Put lands via temp file + fsync + atomic
//     rename (+ directory fsync), so a process killed mid-Put leaves at
//     worst an ignorable temp file, never a half-visible entry.
//   - Per-entry integrity: entries are wrapped in a portsim-cell/v1
//     envelope carrying a SHA-256 checksum of the body; any mismatch —
//     torn write, bit rot, truncation — is detected on read.
//   - Quarantine, not crash: a corrupt entry is renamed to *.corrupt,
//     recorded as a structured StoreError and reported as a miss, so the
//     campaign re-simulates the one cell instead of failing.
package cellstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Schema identifies the on-disk envelope format. Bump the suffix on any
// incompatible change; unknown schemas quarantine on read.
const Schema = "portsim-cell/v1"

// Key is the identity of one experiment cell. It mirrors the identity the
// manifest layer computes — the short config hash plus the cell
// coordinates — extended with the fault descriptor for poisoned cells so
// an injected failure can never be restored into a clean campaign (or
// vice versa).
type Key struct {
	// ConfigHash fingerprints the machine-configuration JSON, same
	// algorithm and width as the manifest layer's config_hash (SHA-256,
	// first 6 bytes, hex).
	ConfigHash string `json:"config_hash"`
	// Machine is the configuration's display name. It is part of the
	// identity: two presets could hash identically only by sharing every
	// parameter AND the name (the name is inside the config JSON), but
	// keeping it in the key makes entries self-describing under Scan.
	Machine string `json:"machine"`
	// Workload is the cell's display name: a built-in workload
	// (compress), a mutated profile (database-k-low) or a multiprogrammed
	// mix (compress-x8). It keeps entries self-describing under Scan; the
	// stream's identity is Stream.
	Workload string `json:"workload"`
	// Stream fingerprints the cell's stream recipe — every profile
	// parameter, the process count and the scheduling quantum — so an
	// edited profile misses instead of restoring results it no longer
	// produces. The experiments layer computes it; the store treats it
	// as an opaque string.
	Stream string `json:"stream"`
	// Seed and Insts pin the generator seed and instruction budget.
	Seed  int64  `json:"seed"`
	Insts uint64 `json:"insts"`
	// Fault is the fault descriptor (experiments -inject syntax) when the
	// cell was deliberately poisoned, empty for clean cells.
	Fault string `json:"fault,omitempty"`
}

// HashConfig fingerprints one machine-configuration JSON document:
// SHA-256, first 6 bytes, hex. It is the one config hash of the project:
// store keys, manifests and the /campaign document all carry it, so a
// manifest's cell names the store entry that holds it. The short hex
// prefix keeps manifests and filenames readable.
func HashConfig(cfgJSON []byte) string {
	sum := sha256.Sum256(cfgJSON)
	return hex.EncodeToString(sum[:6])
}

// ID returns the entry's content address: SHA-256 over the canonical JSON
// of the key, truncated to 16 bytes of hex. It is the base of the entry's
// filename.
func (k Key) ID() string {
	doc, err := json.Marshal(k)
	if err != nil {
		// Key is a struct of plain strings and integers; Marshal cannot
		// fail on it. Guard anyway so a future field type keeps the
		// invariant visible.
		panic(fmt.Sprintf("cellstore: key not marshalable: %v", err))
	}
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:16])
}

// Failure is the stored form of a deterministic cell failure. The
// simulator is deterministic, so a cell that died once dies identically
// on every retry; storing the failure means a poisoned cell fails exactly
// once across runs instead of once per run.
type Failure struct {
	// Message is the underlying error text, verbatim.
	Message string `json:"message"`
	// Panicked marks failures born from a contained panic (the
	// experiments layer maps this back onto its ErrCellPanic sentinel).
	Panicked bool `json:"panicked,omitempty"`
	// Stack is the contained panic's stack trace from the original run,
	// kept for forensics; empty for ordinary simulation errors.
	Stack string `json:"stack,omitempty"`
}

// Entry is one stored cell: its identity plus exactly one of Result
// (opaque payload owned by the experiments layer) or Failure.
type Entry struct {
	Key Key `json:"key"`
	// Result is the successful cell's encoded result; nil for failures.
	Result json.RawMessage `json:"result,omitempty"`
	// Failure is the failed cell's stored error; nil for results.
	Failure *Failure `json:"failure,omitempty"`
}

// Validate checks the entry's structural invariant.
func (e *Entry) Validate() error {
	if e.Key.Workload == "" || e.Key.ConfigHash == "" {
		return fmt.Errorf("cellstore: entry missing workload or config hash")
	}
	if e.Key.Insts == 0 {
		return fmt.Errorf("cellstore: entry has a zero instruction budget")
	}
	hasRes := len(e.Result) > 0
	hasFail := e.Failure != nil
	if hasRes == hasFail {
		return fmt.Errorf("cellstore: entry must carry exactly one of result or failure")
	}
	if hasFail && e.Failure.Message == "" {
		return fmt.Errorf("cellstore: stored failure has no message")
	}
	return nil
}

// envelope is the on-disk wrapper: schema, checksum, body. The body is
// kept as raw bytes so the checksum covers the exact serialised form.
type envelope struct {
	Schema   string          `json:"schema"`
	Checksum string          `json:"checksum"`
	Entry    json.RawMessage `json:"entry"`
}

// bodyChecksum computes the envelope checksum of an entry body.
func bodyChecksum(body []byte) string {
	sum := sha256.Sum256(body)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// EncodeEntry serialises an entry into envelope bytes ready for disk. The
// output is deterministic: the same entry always encodes to the same
// bytes, so a re-Put of an identical cell is byte-identical — the
// content-addressing invariant.
func EncodeEntry(e *Entry) ([]byte, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	body, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("cellstore: encoding entry: %w", err)
	}
	// The envelope is marshalled compactly: MarshalIndent would re-indent
	// the embedded raw body, and the checksum covers the body's exact
	// bytes as stored.
	env := envelope{Schema: Schema, Checksum: bodyChecksum(body), Entry: body}
	data, err := json.Marshal(&env)
	if err != nil {
		return nil, fmt.Errorf("cellstore: encoding envelope: %w", err)
	}
	return append(data, '\n'), nil
}

// DecodeEntry parses and verifies envelope bytes: schema, checksum, entry
// structure. Every corruption shape — truncation, bit flips, wrong
// schema, checksum mismatch, structural nonsense — comes back as an
// error, never a panic; the store turns that error into a quarantine.
func DecodeEntry(data []byte) (*Entry, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("cellstore: envelope not parseable: %w", err)
	}
	if env.Schema != Schema {
		return nil, fmt.Errorf("cellstore: envelope schema %q, want %q", env.Schema, Schema)
	}
	if len(env.Entry) == 0 {
		return nil, fmt.Errorf("cellstore: envelope has no entry body")
	}
	if got := bodyChecksum(env.Entry); got != env.Checksum {
		return nil, fmt.Errorf("cellstore: checksum mismatch: envelope says %s, body is %s", env.Checksum, got)
	}
	var e Entry
	if err := json.Unmarshal(env.Entry, &e); err != nil {
		return nil, fmt.Errorf("cellstore: entry body not parseable: %w", err)
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return &e, nil
}
