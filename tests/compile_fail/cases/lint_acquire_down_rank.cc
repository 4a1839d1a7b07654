// expect-lint: lock-rank
//
// Locksmith: a declaration annotated XST_REQUIRES(A) XST_ACQUIRE(B) takes B
// while its caller holds A, so it is an acquisition like any MutexLock. Here
// the rank-10 lock is acquired with the rank-20 lock held.
#include "src/common/sync.h"

class DownRank {
 public:
  void LockOuter() XST_REQUIRES(inner_) XST_ACQUIRE(outer_);  // rejected

 private:
  xst::Mutex outer_ XST_LOCK_RANK(10);
  xst::Mutex inner_ XST_LOCK_RANK(20);
};
