// Text serialization for MagicClassifier (format "MAGIC-MODEL v3";
// "MAGIC-MODEL v1"/"v2" files still load).
//
// The file stores the config, the derived SortPooling k, the family-name
// table and every parameter tensor in the deterministic order returned by
// DgcnnModel::parameters(). Loading rebuilds the identical architecture and
// overwrites its weights, so save -> load -> predict is bit-reproducible.
//
// v2 writes each family name length-prefixed ("<bytes> <raw name>") so
// names containing whitespace -- "Trojan Horse", UTF-8 labels with spaces,
// even embedded newlines -- survive the round trip. v1 wrote one bare name
// per line but read it back with operator>>, which split on the first
// space and then cascaded the leftover tokens into later names; that is
// the corruption this version fixes. The v1 reader is kept for old files
// (correct for the space-free names v1 could actually round-trip).
//
// v3 adds the graph-convolution operator to the header ("op <name>
// tag_hops <k>", between "act" and "classes"). v1/v2 files predate the
// operator zoo and always meant Eq. 1, so they load as PaperGraphConv. A
// hand-edited header naming the wrong operator for the stored weights is
// rejected by the per-parameter name check below: every operator uses a
// distinct weight name (graph_conv.weight / sage_conv.weight /
// tag_conv.weight), so the mismatch surfaces as a loud name-mismatch error
// instead of silently loading weights into a different formula.

#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "magic/classifier.hpp"

namespace magic::core {
namespace {

void expect(std::istream& is, const std::string& token) {
  std::string got;
  if (!(is >> got) || got != token) {
    throw std::runtime_error("MagicClassifier::load: expected '" + token +
                             "', got '" + got + "'");
  }
}

const char* pooling_name(PoolingType p) {
  return p == PoolingType::SortPooling ? "sort" : "amp";
}
const char* remaining_name(RemainingLayer r) {
  return r == RemainingLayer::Conv1D ? "conv1d" : "wv";
}
const char* activation_name(nn::Activation a) {
  switch (a) {
    case nn::Activation::ReLU: return "relu";
    case nn::Activation::Tanh: return "tanh";
    case nn::Activation::Identity: return "id";
  }
  return "relu";
}

PoolingType parse_pooling(const std::string& s) {
  if (s == "sort") return PoolingType::SortPooling;
  if (s == "amp") return PoolingType::AdaptivePooling;
  throw std::runtime_error("MagicClassifier::load: bad pooling '" + s + "'");
}
RemainingLayer parse_remaining(const std::string& s) {
  if (s == "conv1d") return RemainingLayer::Conv1D;
  if (s == "wv") return RemainingLayer::WeightedVertices;
  throw std::runtime_error("MagicClassifier::load: bad remaining layer '" + s + "'");
}
nn::Activation parse_activation(const std::string& s) {
  if (s == "relu") return nn::Activation::ReLU;
  if (s == "tanh") return nn::Activation::Tanh;
  if (s == "id") return nn::Activation::Identity;
  throw std::runtime_error("MagicClassifier::load: bad activation '" + s + "'");
}

}  // namespace

void MagicClassifier::save(std::ostream& os) const {
  if (!fitted()) throw std::logic_error("MagicClassifier::save: not fitted");
  const DgcnnConfig& c = model_->config();
  os << "MAGIC-MODEL v3\n";
  os << "families " << family_names_.size() << "\n";
  // Length prefix in bytes, then exactly that many raw bytes: immune to
  // whitespace (and any other byte) inside the name.
  for (const auto& name : family_names_) os << name.size() << " " << name << "\n";
  os << "pooling " << pooling_name(c.pooling) << " ratio " << c.pooling_ratio
     << " sort_k " << model_->sort_k() << " remaining " << remaining_name(c.remaining)
     << " conv1d " << c.conv1d_channels_first << " " << c.conv1d_channels_second
     << " " << c.conv1d_kernel << " conv2d " << c.conv2d_channels << " hidden "
     << c.hidden_dim << " dropout " << c.dropout_rate << " log1p "
     << (c.log1p_attributes ? 1 : 0) << " norm "
     << (c.normalize_propagation ? 1 : 0) << " act "
     << activation_name(c.graph_conv_activation) << " op "
     << nn::graph_conv_operator_name(c.graph_conv_op) << " tag_hops "
     << c.tag_hops << " classes " << c.num_classes
     << " input_channels " << c.input_channels << "\n";
  os << "graph_conv " << c.graph_conv_channels.size();
  for (std::size_t ch : c.graph_conv_channels) os << " " << ch;
  os << "\n";

  const auto params = std::as_const(*model_).parameters();
  os << "params " << params.size() << "\n";
  os.precision(std::numeric_limits<double>::max_digits10);
  for (const nn::Parameter* p : params) {
    os << p->name << " " << p->value.size() << "\n";
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      if (i) os << ' ';
      os << p->value[i];
    }
    os << "\n";
  }
}

MagicClassifier MagicClassifier::load(std::istream& is) {
  expect(is, "MAGIC-MODEL");
  std::string version;
  if (!(is >> version) || (version != "v1" && version != "v2" && version != "v3")) {
    throw std::runtime_error("MagicClassifier::load: unsupported version '" +
                             version + "' (expected v1, v2 or v3)");
  }
  expect(is, "families");
  std::size_t n_families = 0;
  is >> n_families;
  std::vector<std::string> names(n_families);
  if (version == "v1") {
    // Legacy whitespace-delimited names (correct only for space-free names,
    // which is all v1 save() could round-trip).
    for (auto& name : names) is >> name;
  } else {
    for (auto& name : names) {
      std::size_t len = 0;
      if (!(is >> len)) {
        throw std::runtime_error("MagicClassifier::load: truncated family table");
      }
      is.get();  // the single separator byte after the length
      name.resize(len);
      if (len > 0 && !is.read(name.data(), static_cast<std::streamsize>(len))) {
        throw std::runtime_error("MagicClassifier::load: truncated family name");
      }
    }
  }

  DgcnnConfig cfg;
  std::size_t sort_k = 0;
  std::string tok;
  expect(is, "pooling");
  is >> tok;
  cfg.pooling = parse_pooling(tok);
  expect(is, "ratio");
  is >> cfg.pooling_ratio;
  expect(is, "sort_k");
  is >> sort_k;
  expect(is, "remaining");
  is >> tok;
  cfg.remaining = parse_remaining(tok);
  expect(is, "conv1d");
  is >> cfg.conv1d_channels_first >> cfg.conv1d_channels_second >> cfg.conv1d_kernel;
  expect(is, "conv2d");
  is >> cfg.conv2d_channels;
  expect(is, "hidden");
  is >> cfg.hidden_dim;
  expect(is, "dropout");
  is >> cfg.dropout_rate;
  expect(is, "log1p");
  int log1p_flag = 0;
  is >> log1p_flag;
  cfg.log1p_attributes = log1p_flag != 0;
  expect(is, "norm");
  int norm_flag = 1;
  is >> norm_flag;
  cfg.normalize_propagation = norm_flag != 0;
  expect(is, "act");
  is >> tok;
  cfg.graph_conv_activation = parse_activation(tok);
  if (version == "v3") {
    expect(is, "op");
    is >> tok;
    cfg.graph_conv_op = nn::parse_graph_conv_operator(tok);
    expect(is, "tag_hops");
    is >> cfg.tag_hops;
  }  // v1/v2 predate the zoo: Eq. 1 (PaperGraphConv) is the only operator.
  expect(is, "classes");
  is >> cfg.num_classes;
  expect(is, "input_channels");
  is >> cfg.input_channels;
  expect(is, "graph_conv");
  std::size_t depth = 0;
  is >> depth;
  cfg.graph_conv_channels.assign(depth, 0);
  for (auto& ch : cfg.graph_conv_channels) is >> ch;
  if (!is) throw std::runtime_error("MagicClassifier::load: truncated header");
  cfg.sort_k = sort_k;

  // A family table that disagrees with the model's class count means the
  // checkpoint is corrupt (or hand-edited); predictions would index the
  // name table out of range or mislabel every verdict.
  if (names.size() != cfg.num_classes) {
    throw std::runtime_error(
        "MagicClassifier::load: family table has " + std::to_string(names.size()) +
        " names but the model declares " + std::to_string(cfg.num_classes) +
        " classes");
  }

  MagicClassifier clf(cfg);
  clf.family_names_ = std::move(names);
  util::Rng rng(1);  // weights are overwritten below
  clf.model_ = std::make_unique<DgcnnModel>(cfg, rng, sort_k == 0 ? 16 : sort_k);

  expect(is, "params");
  std::size_t n_params = 0;
  is >> n_params;
  auto params = clf.model_->parameters();
  if (params.size() != n_params) {
    throw std::runtime_error("MagicClassifier::load: parameter count mismatch");
  }
  for (nn::Parameter* p : params) {
    std::string name;
    std::size_t size = 0;
    if (!(is >> name >> size)) {
      throw std::runtime_error("MagicClassifier::load: truncated parameter header (expected " +
                               p->name + ")");
    }
    // Stored tensors must line up with the rebuilt architecture one-to-one;
    // a renamed or reordered entry would silently load weights into the
    // wrong layer.
    if (name != p->name) {
      throw std::runtime_error("MagicClassifier::load: parameter name mismatch: expected '" +
                               p->name + "', got '" + name + "'");
    }
    if (size != p->value.size()) {
      throw std::runtime_error("MagicClassifier::load: parameter shape mismatch for " +
                               p->name + ": expected " + std::to_string(p->value.size()) +
                               " values, got " + std::to_string(size));
    }
    for (std::size_t i = 0; i < size; ++i) {
      if (!(is >> p->value[i])) {
        throw std::runtime_error("MagicClassifier::load: truncated values for " + name);
      }
    }
  }
  return clf;
}

}  // namespace magic::core
