// Minimal non-owning callable reference (the hot-loop subset of
// absl::FunctionRef): no allocation, no virtual dispatch state, valid only
// for the duration of the call it is passed to. Hot loops take one instead
// of a std::function so a per-record callback never allocates.

#ifndef PINOCCHIO_UTIL_FUNCTION_REF_H_
#define PINOCCHIO_UTIL_FUNCTION_REF_H_

#include <type_traits>
#include <utility>

namespace pinocchio {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef>>>
  FunctionRef(F&& f)  // NOLINT(google-explicit-constructor): by design
      : target_(const_cast<void*>(static_cast<const void*>(&f))),
        invoke_([](void* target, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(target))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return invoke_(target_, std::forward<Args>(args)...);
  }

 private:
  void* target_;
  R (*invoke_)(void*, Args...);
};

}  // namespace pinocchio

#endif  // PINOCCHIO_UTIL_FUNCTION_REF_H_
