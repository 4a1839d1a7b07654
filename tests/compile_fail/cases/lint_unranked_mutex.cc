// expect-lint: lock-rank
//
// Locksmith: every xst::Mutex takes a place in the rank hierarchy. A lock
// declared without XST_LOCK_RANK(n) would let an inverse-order pair of
// unranked locks deadlock unseen, so the declaration itself is rejected.
#include "src/common/sync.h"

class Unranked {
 public:
  void Forward() {
    xst::MutexLock first(&a_);
    xst::MutexLock second(&b_);
  }
  void Backward() {
    xst::MutexLock first(&b_);
    xst::MutexLock second(&a_);
  }

 private:
  xst::Mutex a_;  // no XST_LOCK_RANK: rejected
  xst::Mutex b_;  // no XST_LOCK_RANK: rejected
};
