// Journal::rotate calls ledger_->settle() with journal_mutex_ held, and
// settle takes ledger_mutex_ (ledger.cpp): the reverse of ledger.cpp's
// edge. Neither TU holds two mutexes or makes an unqualified call: only
// member calls, joined across both files, close the cycle.
#include "books.hpp"

namespace kc {

void Journal::append_entry() {
  compat::LockGuard lock(journal_mutex_);
  entries_ += 1;
}

void Journal::rotate() {
  compat::LockGuard lock(journal_mutex_);
  ledger_->settle();
}

}  // namespace kc
