#include "baselines/autoencoder.hpp"

#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace magic::baselines {

AutoencoderGbt::AutoencoderGbt(AutoencoderOptions options)
    : options_(options), gbdt_(options.gbdt) {}

void AutoencoderGbt::fit(const ml::FeatureMatrix& data, std::size_t num_classes) {
  if (data.rows.empty()) throw std::invalid_argument("AutoencoderGbt::fit: empty data");
  scaler_.fit(data.rows);
  const auto scaled = scaler_.transform_all(data.rows);
  const std::size_t d = scaled.front().size();
  const std::size_t h = options_.latent_dim;

  // Train a d -> h -> d autoencoder with the nn substrate.
  util::Rng rng(options_.seed);
  nn::Linear encoder(d, h, rng);
  nn::Tanh enc_act;
  nn::Linear decoder(h, d, rng);
  std::vector<nn::Parameter*> params = encoder.parameters();
  for (auto* p : decoder.parameters()) params.push_back(p);
  nn::Adam adam(params, options_.learning_rate);
  std::vector<nn::Tensor> grads = nn::zero_gradients(params);
  const nn::Gradients all(grads);
  const nn::Gradients encoder_grads = all.first(2), decoder_grads = all.last(2);

  std::vector<std::size_t> order(scaled.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  double last_mse = 0.0;
  for (std::size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.shuffle(order);
    double total = 0.0;
    for (std::size_t i : order) {
      const nn::Tensor x({1, d}, scaled[i]);
      nn::Tape tape;
      const nn::Tensor recon =
          decoder.forward(enc_act.forward(encoder.forward(x, &tape), &tape), &tape);
      // MSE loss: L = mean((recon - x)^2); dL/drecon = 2 (recon - x) / d.
      nn::Tensor grad({1, d});
      double loss = 0.0;
      for (std::size_t j = 0; j < d; ++j) {
        const double diff = recon[j] - x[j];
        loss += diff * diff;
        grad[j] = 2.0 * diff / static_cast<double>(d);
      }
      total += loss / static_cast<double>(d);
      for (nn::Tensor& g : grads) g.fill(0.0);
      encoder.backward(
          enc_act.backward(decoder.backward(std::move(grad), tape, decoder_grads), tape, {}),
          tape, encoder_grads);
      adam.step(grads);
    }
    last_mse = total / static_cast<double>(order.size());
  }
  reconstruction_mse_ = last_mse;

  // Freeze the encoder weights into plain matrices.
  enc_w_.assign(h, std::vector<double>(d, 0.0));
  enc_b_.assign(h, 0.0);
  for (std::size_t j = 0; j < d; ++j) {
    for (std::size_t k = 0; k < h; ++k) {
      enc_w_[k][j] = encoder.weight().value[j * h + k];
    }
  }
  for (std::size_t k = 0; k < h; ++k) enc_b_[k] = encoder.bias().value[k];

  // Train the boosted classifier on latent codes.
  ml::FeatureMatrix latent_data;
  latent_data.labels = data.labels;
  latent_data.rows.reserve(scaled.size());
  for (const auto& row : scaled) latent_data.rows.push_back(encode_from_scaled(row));
  gbdt_.fit(latent_data, num_classes);
}

std::vector<double> AutoencoderGbt::encode_from_scaled(
    const std::vector<double>& scaled) const {
  std::vector<double> latent(enc_w_.size());
  for (std::size_t k = 0; k < enc_w_.size(); ++k) {
    double acc = enc_b_[k];
    for (std::size_t j = 0; j < scaled.size(); ++j) acc += enc_w_[k][j] * scaled[j];
    latent[k] = std::tanh(acc);
  }
  return latent;
}

std::vector<double> AutoencoderGbt::encode(const std::vector<double>& x) const {
  return encode_from_scaled(scaler_.transform(x));
}

std::vector<double> AutoencoderGbt::predict_proba(const std::vector<double>& x) const {
  if (enc_w_.empty()) throw std::logic_error("AutoencoderGbt: not fitted");
  return gbdt_.predict_proba(encode(x));
}

}  // namespace magic::baselines
