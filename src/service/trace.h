// The JOIN_BATCH stage names for util::StageTrace (util/stage_trace.h).
// The stages tile the request's server-side lifetime; the acceptance
// contract is that their sum lands within 10% of the wall time a loopback
// client measures around the call (the remainder is transport).

#ifndef ACTJOIN_SERVICE_TRACE_H_
#define ACTJOIN_SERVICE_TRACE_H_

#include <cstdint>

#include "util/stage_trace.h"

namespace actjoin::service {

enum class TraceStage : uint8_t {
  kAdmission = 0,  // admission-control decision (rate/bytes/watermark)
  kDecode = 1,     // wire payload -> QueryBatch, up to the submit call
  kQueue = 2,      // bounded-queue wait until a worker picks it up
  kDecompose = 3,  // carve the batch into sub-range tasks
  kProbe = 4,      // per-task probe/refine across the pool (wall, not CPU)
  kMerge = 5,      // fixed-order merge of per-task results
  kRespond = 6,    // response encode + delivery to the event loop
};

inline constexpr int kNumTraceStages = util::kNumStages;

inline const char* TraceStageName(TraceStage s) {
  switch (s) {
    case TraceStage::kAdmission: return "admission";
    case TraceStage::kDecode: return "decode";
    case TraceStage::kQueue: return "queue";
    case TraceStage::kDecompose: return "decompose";
    case TraceStage::kProbe: return "probe";
    case TraceStage::kMerge: return "merge";
    case TraceStage::kRespond: return "respond";
  }
  return "?";
}

}  // namespace actjoin::service

#endif  // ACTJOIN_SERVICE_TRACE_H_
