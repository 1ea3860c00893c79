// Known-good fixture for lint_options_used: options_user.cc sets every
// field, one of them through a member of the field.
namespace dfs {

class CacheManager {
 public:
  struct Options {
    int used_knob = 0;
    NodeOptions rpc;  // set through a member
  };
};

}  // namespace dfs
