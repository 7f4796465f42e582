// Ledger::post calls journal_->append_entry() with ledger_mutex_ held,
// and append_entry takes journal_mutex_ (journal.cpp): ledger_mutex_ ->
// journal_mutex_.
#include "books.hpp"

namespace kc {

void Ledger::post() {
  compat::LockGuard lock(ledger_mutex_);
  journal_->append_entry();
}

void Ledger::settle() {
  compat::LockGuard lock(ledger_mutex_);
  balance_ = 0;
}

}  // namespace kc
