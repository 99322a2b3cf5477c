package system

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
)

// ModelFingerprint identifies the simulation model's behavior: the
// SHA-256 of the golden run-report fixtures (internal/check/golden/
// testdata, in file-name order). Any change that moves a simulated
// result regenerates those fixtures, and a golden test then fails until
// this constant matches them again. Bumping it orphans every result
// stored under the old value, so a stored result is only ever served
// to the model that produced it.
const ModelFingerprint = "d822f15452864b14c8b8ee2697fa4b0a9d66807ad2d68985ca8e8e966c6f4b24"

// errNoDigest is Digest's refusal for specs with a custom generator.
var errNoDigest = errors.New("system: a spec with GeneratorFor has no digest")

// Digest returns the identity of the run the spec describes: hex
// SHA-256 over ModelFingerprint and the canonical encoding/json form of
// the spec's data fields (Sys, Profiles, budgets, seed). Obs and Limits
// are excluded — observation is read-only and a limit either trips
// (no result) or leaves the result untouched. A spec with GeneratorFor
// set is refused: a function value has no canonical form.
func (s Spec) Digest() (string, error) {
	if s.GeneratorFor != nil {
		return "", errNoDigest
	}
	data, err := json.Marshal(s)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(ModelFingerprint))
	h.Write([]byte{0})
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil)), nil
}
