// magic_lint fixture: a front end with its own request-kind switch, a
// second copy of the wire protocol next to serve::Session. The
// one-protocol rule must flag its case labels.

namespace fixture::wire {

struct Request {
  enum class Kind { Path, Base64, Stats, Quit };
  Kind kind = Kind::Quit;
};

}  // namespace fixture::wire

namespace fixture {

int dispatch(const wire::Request& request) {
  switch (request.kind) {
    case wire::Request::Kind::Path:
    case wire::Request::Kind::Base64:
      return 1;
    case wire::Request::Kind::Stats:
      return 2;
    case wire::Request::Kind::Quit:
      return 0;
  }
  return -1;
}

}  // namespace fixture
