// The JOIN_DATASETS stage names for util::StageTrace (util/stage_trace.h),
// the polygon×polygon analogue of service/trace.h. The stages tile the
// crossmatch's server-side lifetime under the same contract as JOIN_BATCH
// traces: the sum lands within 10% of a loopback client's wall time.

#ifndef ACTJOIN_JOIN2_CROSS_MATCH_STAGE_H_
#define ACTJOIN_JOIN2_CROSS_MATCH_STAGE_H_

#include <cstdint>

#include "util/stage_trace.h"

namespace actjoin::join2 {

enum class CrossMatchStage : uint8_t {
  kAdmission = 0,  // admission-control decision, both sides charged
  kDecode = 1,     // wire payload -> CrossMatchRequest, up to the submit call
  kQueue = 2,      // service-queue wait until a worker picks it up
  kPin = 3,        // snapshot pin + IntervalView flatten/coarsen, both sides
  kDescend = 4,    // synchronized dual-trie descent + candidate dedup
  kRefine = 5,     // polygon-polygon predicate evaluation + output assembly
  kStream = 6,     // PAIR_RESULT chunk encode + delivery to the event loop
};

inline constexpr int kNumCrossMatchStages = util::kNumStages;

inline const char* CrossMatchStageName(CrossMatchStage s) {
  switch (s) {
    case CrossMatchStage::kAdmission: return "admission";
    case CrossMatchStage::kDecode: return "decode";
    case CrossMatchStage::kQueue: return "queue";
    case CrossMatchStage::kPin: return "pin";
    case CrossMatchStage::kDescend: return "descend";
    case CrossMatchStage::kRefine: return "refine";
    case CrossMatchStage::kStream: return "stream";
  }
  return "?";
}

}  // namespace actjoin::join2

#endif  // ACTJOIN_JOIN2_CROSS_MATCH_STAGE_H_
