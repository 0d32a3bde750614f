/**
 * @file
 * The config text codec (model/config_io.h), the key=value text bundles
 * store a model's hyper-parameters in. A probe config with one field of
 * each type pins every spelling the codec accepts or refuses and the
 * exact error message of each refusal; a golden digest pins what it
 * makes of seeded mutations of both model configs' canonical text.
 */
#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "base/string_util.h"
#include "core/granite_model.h"
#include "gtest/gtest.h"
#include "ithemal/ithemal_model.h"
#include "model/config_io.h"

namespace granite::model {
namespace {

enum class Color { kRed, kGreen };

constexpr std::array<EnumName<Color>, 2> kColorNames = {
    {{Color::kRed, "red"}, {Color::kGreen, "green"}}};

/** One field of each type the model field lists use. */
struct ProbeConfig {
  int count = 3;
  std::uint64_t seed = 7;
  bool flag = false;
  float scale = 1.5f;
  std::vector<int> layers = {4, 4};
  Color color = Color::kRed;

  template <typename Self, typename Visitor>
  static void VisitFields(Self& config, Visitor& visitor) {
    visitor.Field("count", config.count, IntRange{-100, 100});
    visitor.Field("seed", config.seed);
    visitor.Field("flag", config.flag);
    visitor.Field("scale", config.scale);
    visitor.Field("layers", config.layers, kWidthRange);
    visitor.Field("color", config.color, kColorNames);
  }
};

/** The error ParseFields<ProbeConfig> throws for `text`, or "" if it
 * parses. */
std::string ErrorOf(const std::string& text) {
  try {
    ParseFields<ProbeConfig>(text);
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

/** The error a value of `key` that is no valid `type` throws. */
std::string Refusal(const std::string& key, const std::string& type,
                    const std::string& value) {
  return "config value for '" + key + "' is not a valid " + type + ": '" +
         value + "'";
}

TEST(ConfigCodecTest, RoundTripsOneFieldOfEachType) {
  ProbeConfig config;
  config.count = -42;
  config.seed = 0xFFFFFFFFFFFFFFFFull;
  config.flag = true;
  config.scale = 0.1f;
  config.layers = {16, 32, 16};
  config.color = Color::kGreen;
  const std::string text = SerializeFields(config);
  EXPECT_EQ(text,
            "count=-42\n"
            "seed=18446744073709551615\n"
            "flag=1\n"
            "scale=0.100000001\n"
            "layers=16,32,16\n"
            "color=green\n");
  const ProbeConfig parsed = ParseFields<ProbeConfig>(text);
  EXPECT_EQ(parsed.count, -42);
  EXPECT_EQ(parsed.seed, 0xFFFFFFFFFFFFFFFFull);
  EXPECT_TRUE(parsed.flag);
  EXPECT_EQ(parsed.scale, 0.1f);
  EXPECT_EQ(parsed.layers, (std::vector<int>{16, 32, 16}));
  EXPECT_EQ(parsed.color, Color::kGreen);
  EXPECT_EQ(SerializeFields(ProbeConfig()),
            "count=3\nseed=7\nflag=0\nscale=1.5\nlayers=4,4\ncolor=red\n");
  config = ProbeConfig();
  config.layers = {};
  EXPECT_EQ(SerializeFields(config),
            "count=3\nseed=7\nflag=0\nscale=1.5\nlayers=\ncolor=red\n");
}

TEST(ConfigCodecTest, LineGrammar) {
  // Missing keys keep the default; unknown keys, blank lines and `#`
  // lines are skipped, and the last line may lack its newline.
  EXPECT_EQ(SerializeFields(ParseFields<ProbeConfig>("")),
            SerializeFields(ProbeConfig()));
  EXPECT_EQ(ParseFields<ProbeConfig>("unknown=1\n\n#count=9\ncount=5").count,
            5);
  // The key is everything before the first '=', spaces included, and
  // the value everything after it.
  EXPECT_EQ(ParseFields<ProbeConfig>(" count=5\n").count, 3);
  EXPECT_EQ(ErrorOf("color=red=x\n"),
            "config value for 'color' is not a known name: 'red=x'");
  // The last duplicate wins, and an earlier value is never read.
  EXPECT_EQ(ParseFields<ProbeConfig>("count=1\ncount=2\n").count, 2);
  EXPECT_EQ(ParseFields<ProbeConfig>("count=abc\ncount=2\n").count, 2);
  EXPECT_EQ(ErrorOf("count=2\ncount=abc\n"),
            "config value for 'count' is not a valid integer: 'abc'");
  // A line without '=' throws before any field is read, even after a
  // bad value, and a line of spaces is no blank line.
  EXPECT_EQ(ErrorOf("count=abc\nno_separator_line\n"),
            "malformed config line (no '='): 'no_separator_line'");
  EXPECT_EQ(ErrorOf(" \n"), "malformed config line (no '='): ' '");
  // Only '\n' ends a line: a '\r' stays in the value.
  EXPECT_EQ(ErrorOf("count=5\r\n"),
            "config value for 'count' is not a valid integer: '5\r'");
  // Fields are read in field-list order, so the first bad one names the
  // error whatever the line order.
  EXPECT_EQ(ErrorOf("color=blue\ncount=abc\n"),
            "config value for 'count' is not a valid integer: 'abc'");
}

TEST(ConfigCodecTest, BooleansTakeFourSpellings) {
  EXPECT_TRUE(ParseFields<ProbeConfig>("flag=1").flag);
  EXPECT_TRUE(ParseFields<ProbeConfig>("flag=true").flag);
  EXPECT_FALSE(ParseFields<ProbeConfig>("flag=0\n").flag);
  EXPECT_FALSE(ParseFields<ProbeConfig>("flag=false\n").flag);
  for (const char* value : {"maybe", "TRUE", "2", " 1", "1 ", ""}) {
    EXPECT_EQ(ErrorOf(std::string("flag=") + value),
              Refusal("flag", "boolean", value));
  }
}

TEST(ConfigCodecTest, IntegersTakeOneDecimalSpelling) {
  // No '+', no surrounding whitespace, no hex, no bare sign, and no
  // value past the int64 / uint64 range; unsigned values refuse
  // negatives.
  for (const char* value :
       {"abc", "+5", "5 ", " 3", "0x10", "-", "", "9223372036854775808",
        "-9223372036854775809"}) {
    EXPECT_EQ(ErrorOf(std::string("count=") + value),
              Refusal("count", "integer", value));
  }
  for (const char* value : {"+5", "5 ", " -1", "-1", "0x10", "-", "",
                            "18446744073709551616"}) {
    EXPECT_EQ(ErrorOf(std::string("seed=") + value),
              Refusal("seed", "unsigned integer", value));
  }
  EXPECT_EQ(ParseFields<ProbeConfig>("count=-100").count, -100);
  EXPECT_EQ(ParseFields<ProbeConfig>("count=100").count, 100);
  EXPECT_EQ(ParseFields<ProbeConfig>("seed=0").seed, 0u);
  EXPECT_EQ(ErrorOf("count=101"),
            "config value count = 101 outside [-100, 100]");
  EXPECT_EQ(ErrorOf("count=-9223372036854775808"),
            "config value count = -9223372036854775808 outside [-100, 100]");
}

TEST(ConfigCodecTest, ListItemsTakeOneDecimalSpellingAndFitInt) {
  EXPECT_EQ(ParseFields<ProbeConfig>("layers=").layers, std::vector<int>{});
  EXPECT_EQ(ParseFields<ProbeConfig>("layers=65536").layers,
            std::vector<int>{65536});
  // Each item is refused on its own, as a whole value would be.
  const std::vector<std::pair<const char*, const char*>> refused = {
      {"1,+5", "+5"}, {"1,5 ", "5 "}, {"0x10,1", "0x10"}, {"1,-", "-"},
      {"1,", ""}, {",1", ""}, {"1,,2", ""}, {"+5", "+5"},
      {"9223372036854775808", "9223372036854775808"},
      {"-9223372036854775809", "-9223372036854775809"}};
  for (const auto& [value, item] : refused) {
    EXPECT_EQ(ErrorOf(std::string("layers=") + value),
              Refusal("layers", "integer", item))
        << value;
  }
  EXPECT_EQ(ErrorOf("layers=4,2147483648"),
            Refusal("layers", "int", "2147483648"));
  EXPECT_EQ(ErrorOf("layers=4,0"),
            "config value layers = 0 outside [1, 65536]");
  EXPECT_EQ(ErrorOf("layers=-2147483648"),
            "config value layers = -2147483648 outside [1, 65536]");
  std::string widths = "layers=1";
  for (int i = 0; i < 64; ++i) widths += ",1";
  EXPECT_EQ(ErrorOf(widths),
            "config value layers = 65 widths outside [0, 64]");
}

TEST(ConfigCodecTest, FloatsTakeOneFiniteDecimalSpelling) {
  for (const char* value : {" 1.5", "+1.5", "0x1p3", "nan", "inf", "-inf",
                            "1.5 ", "1e39", "", "abc"}) {
    EXPECT_EQ(ErrorOf(std::string("scale=") + value),
              Refusal("scale", "finite float", value));
  }
  EXPECT_EQ(ParseFields<ProbeConfig>("scale=-2.5").scale, -2.5f);
  EXPECT_EQ(ParseFields<ProbeConfig>("scale=1e-3").scale, 1e-3f);
}

TEST(ConfigCodecTest, EnumsTakeTheirNames) {
  EXPECT_EQ(ParseFields<ProbeConfig>("color=green").color, Color::kGreen);
  for (const char* value : {"blue", "Green", " red", ""}) {
    EXPECT_EQ(ErrorOf(std::string("color=") + value),
              std::string("config value for 'color' is not a known name: '") +
                  value + "'");
  }
}

/** Applies one seeded mutation of the kinds a damaged or hand-edited
 * bundle config might show. */
void Mutate(std::string& text, Rng& rng) {
  // The offset of a random line start (the end of the text counts).
  const auto line_start = [&] {
    std::vector<std::size_t> starts = {0};
    for (std::size_t i = 0; i < text.size(); ++i) {
      if (text[i] == '\n') starts.push_back(i + 1);
    }
    return starts[rng.NextBounded(starts.size())];
  };
  const std::size_t position = rng.NextBounded(text.size() + 1);
  switch (rng.NextBounded(7)) {
    case 0:  // byte flip
      if (position < text.size()) {
        text[position] = static_cast<char>(
            text[position] ^ static_cast<char>(1u << rng.NextBounded(8)));
      }
      break;
    case 1:  // truncation
      text.resize(position);
      break;
    case 2: {  // duplicated line, inserted at a line start
      const std::size_t start = line_start();
      const std::size_t end = text.find('\n', start);
      const std::string line =
          text.substr(start, end == std::string::npos ? end : end - start + 1);
      text.insert(line_start(), line);
      break;
    }
    case 3:  // blank line
      text.insert(line_start(), 1, '\n');
      break;
    case 4:  // comment line
      text.insert(line_start(), "# num_tasks=0\n");
      break;
    case 5:  // stray '='
      text.insert(position, 1, '=');
      break;
    default:  // stray ','
      text.insert(position, 1, ',');
      break;
  }
}

/** Golden digest over the outcome of parsing 6,000 seeded mutations of
 * four canonical config texts (GRANITE and Ithemal, default and
 * non-default): the ok flag, then the re-serialized config or the exact
 * error message. Every input ends in a config or a std::runtime_error;
 * any change to what the codec accepts, to the config it returns or to
 * the wording of an error changes the digest. */
TEST(ConfigCodecTest, GoldenDigestOverMutatedConfigText) {
  core::GraniteConfig granite = core::GraniteConfig().WithEmbeddingSize(16);
  granite.node_update_layers = {};
  granite.decoder_layers = {48, 24, 12};
  granite.message_passing_iterations = 5;
  granite.use_layer_norm = false;
  granite.num_tasks = 3;
  granite.decoder_output_bias_init = 0.1f;
  granite.seed = 18446744073709551615ull;
  ithemal::IthemalConfig ithemal_plus =
      ithemal::IthemalConfig().WithEmbeddingSize(12);
  ithemal_plus.decoder = ithemal::DecoderKind::kMlp;
  ithemal_plus.decoder_layers = {12, 6};
  ithemal_plus.num_tasks = 2;
  ithemal_plus.decoder_output_bias_init = -2.5f;

  std::uint64_t digest = kFnvOffsetBasis;
  std::size_t accepted = 0;
  std::size_t total = 0;
  const auto mutate_all = [&]<typename Config>(const Config& config) {
    const std::string canonical = SerializeFields(config);
    for (const std::uint64_t seed : {11, 22, 33}) {
      Rng rng(seed);
      for (int iteration = 0; iteration < 500; ++iteration) {
        std::string text = canonical;
        const int mutations = 1 + static_cast<int>(rng.NextBounded(3));
        for (int m = 0; m < mutations; ++m) Mutate(text, rng);
        bool ok = true;
        std::string outcome;
        try {
          outcome = SerializeFields(ParseFields<Config>(text));
        } catch (const std::runtime_error& error) {
          ok = false;
          outcome = error.what();
        }
        accepted += ok ? 1 : 0;
        ++total;
        digest = Fnv1a(digest, ok ? "1" : "0");
        digest = Fnv1a(digest, outcome);
        digest = Fnv1a(digest, std::string_view("\0", 1));
      }
    }
  };
  mutate_all(core::GraniteConfig());
  mutate_all(granite);
  mutate_all(ithemal::IthemalConfig());
  mutate_all(ithemal_plus);
  EXPECT_EQ(total, 6000u);
  EXPECT_EQ(accepted, 3956u);
  EXPECT_EQ(digest, 845808943348298146ull);
}

}  // namespace
}  // namespace granite::model
