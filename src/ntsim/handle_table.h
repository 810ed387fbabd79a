// Per-process handle table.
//
// Handle values follow NT conventions (small multiples of 4). A corrupted
// handle argument almost never resolves — except "set all bits", which
// becomes the current-process pseudo-handle, a genuine NT hazard that DTS
// exercised.
#pragma once

#include <map>
#include <memory>

#include "ntsim/object.h"
#include "ntsim/types.h"

namespace dts::nt {

class HandleTable {
 public:
  /// Inserts an object and returns the new handle.
  Handle insert(std::shared_ptr<KernelObject> obj);

  /// Resolves a handle to its object, or nullptr. Pseudo-handles are not
  /// resolved here (the kernel layer handles those before consulting the
  /// table).
  std::shared_ptr<KernelObject> get(Handle h) const;

  /// Resolves and downcasts. Returns nullptr on bad handle or wrong type.
  template <typename T>
  std::shared_ptr<T> get_as(Handle h) const {
    return std::dynamic_pointer_cast<T>(get(h));
  }

  /// Closes a handle. Returns false if the handle was not open.
  bool close(Handle h);

  /// Removes every handle (process teardown). Object destructors run here
  /// for objects whose last reference this was.
  void clear() { table_.clear(); }

  std::size_t open_handles() const { return table_.size(); }

  /// Iteration support (used by process teardown to abandon owned mutexes).
  auto begin() const { return table_.begin(); }
  auto end() const { return table_.end(); }

 private:
  std::map<Word, std::shared_ptr<KernelObject>> table_;
  Word next_ = 0x10;
};

}  // namespace dts::nt
