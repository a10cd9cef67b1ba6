// Binary checkpoint codec for the orchestrator's logical state.
//
// A checkpoint is the serialized Orchestrator::State — every committed
// tenant with its venv and mapping, the failure masks, the healer's
// degraded/deferred/parked bookkeeping, the retry queue, the availability
// tracker, and the report's scalar counters — encoded with the io/binfmt
// primitives so every double travels as its IEEE-754 bit pattern and a
// restored orchestrator is *bit*-equal to the one that exported it (the
// byte-identical-fingerprint recovery gate depends on exactly this).
//
// Orchestrator::State holds the report's scalar counters only, never its
// per-decision vectors, and no entry outlives its tenant, so a checkpoint
// grows with live state, not with run length, and recovery time stays
// bounded by the journal tail.  DefragSummary::total_seconds is excluded —
// it is wall clock, the one thing replay is allowed to change.
//
// Versioned: the payload leads with kCheckpointVersion and decode rejects
// anything else loudly (a crash must never be "recovered" through a codec
// skew).
#pragma once

#include <string>
#include <string_view>

#include "orchestrator/orchestrator.h"

namespace hmn::recovery {

inline constexpr std::uint32_t kCheckpointVersion = 3;

/// Serializes a state export.  Total size is O(committed state), never
/// O(run length).
[[nodiscard]] std::string encode_state(
    const orchestrator::Orchestrator::State& state);

/// Decodes a checkpoint payload (the bytes encode_state produced; the
/// frame CRC has already vouched for their integrity).  Throws
/// RecoveryError (journal.h) with a descriptive offset-bearing message on
/// version skew or a malformed payload, including any element count the
/// remaining bytes cannot hold.
[[nodiscard]] orchestrator::Orchestrator::State decode_state(
    std::string_view payload);

}  // namespace hmn::recovery
