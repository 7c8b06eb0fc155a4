// Pins the structural properties of the synthetic datasets that the
// paper-shape experiments rely on (DESIGN.md §1). If a generator change
// breaks one of these, the benches will drift from the paper's shape.
#include <set>
#include <unordered_map>
#include <unordered_set>

#include <gtest/gtest.h>

#include "datasets/bibnet.h"
#include "datasets/qlog.h"

namespace rtr::datasets {
namespace {

const BibNet& Net() {
  static const BibNet* net = [] {
    BibNetConfig config;
    config.num_papers = 3000;
    config.num_authors = 800;
    return new BibNet(BibNet::Generate(config).value());
  }();
  return *net;
}

const QLog& Log() {
  static const QLog* log = [] {
    QLogConfig config;
    config.num_concepts = 1200;
    return new QLog(QLog::Generate(config).value());
  }();
  return *log;
}

TEST(BibNetPropertyTest, AuthorContinuityViaCitations) {
  // Task 1 is solvable because papers tend to cite their own authors'
  // earlier work: for papers with citations, a large fraction must have at
  // least one author among the cited papers' authors.
  const BibNet& net = Net();
  int with_citations = 0, with_continuity = 0;
  for (const BibNet::Paper& paper : net.papers()) {
    if (paper.citations.empty()) continue;
    ++with_citations;
    std::unordered_set<NodeId> cited_authors;
    for (NodeId cited : paper.citations) {
      const BibNet::Paper& cited_paper =
          net.papers()[cited - net.papers().front().node];
      cited_authors.insert(cited_paper.authors.begin(),
                           cited_paper.authors.end());
    }
    for (NodeId author : paper.authors) {
      if (cited_authors.count(author)) {
        ++with_continuity;
        break;
      }
    }
  }
  ASSERT_GT(with_citations, 100);
  EXPECT_GT(static_cast<double>(with_continuity) / with_citations, 0.5);
}

TEST(BibNetPropertyTest, MajorVenuesDominatePerTopicVolume) {
  // The Fig. 1/6/7 contrast requires a major venue's *per-topic* paper
  // count to exceed the specialized venue's on average.
  const BibNet& net = Net();
  const BibNetConfig& config = net.config();
  int num_topics = config.num_areas * config.topics_per_area;
  // papers_in[venue_index][topic]
  std::vector<std::vector<int>> per_topic(net.venues().size(),
                                          std::vector<int>(num_topics, 0));
  std::vector<int> venue_of_node(net.graph().num_nodes(), -1);
  for (size_t i = 0; i < net.venues().size(); ++i) {
    venue_of_node[net.venues()[i].node] = static_cast<int>(i);
  }
  for (const BibNet::Paper& paper : net.papers()) {
    per_topic[venue_of_node[paper.venue]][paper.topic]++;
  }
  double major_per_topic = 0.0, spec_own_topic = 0.0;
  int major_cells = 0, spec_count = 0;
  for (size_t i = 0; i < net.venues().size(); ++i) {
    const BibNet::Venue& venue = net.venues()[i];
    if (venue.major) {
      int first = venue.area * config.topics_per_area;
      for (int t = first; t < first + config.topics_per_area; ++t) {
        major_per_topic += per_topic[i][t];
        ++major_cells;
      }
    } else {
      spec_own_topic += per_topic[i][venue.topic];
      ++spec_count;
    }
  }
  major_per_topic /= major_cells;
  spec_own_topic /= spec_count;
  EXPECT_GT(major_per_topic, spec_own_topic);
}

TEST(BibNetPropertyTest, SpecializedVenuesArePure) {
  // A specialized venue accepts only papers of its own topic — the
  // specificity archetype.
  const BibNet& net = Net();
  std::vector<int> venue_topic(net.graph().num_nodes(), -2);
  for (const BibNet::Venue& venue : net.venues()) {
    venue_topic[venue.node] = venue.major ? -1 : venue.topic;
  }
  for (const BibNet::Paper& paper : net.papers()) {
    int topic = venue_topic[paper.venue];
    if (topic >= 0) {
      EXPECT_EQ(topic, paper.topic);
    }
  }
}

TEST(QLogPropertyTest, CrossConceptClicksOnPopularUrls) {
  // Task 3's importance lean requires popular concept URLs to attract
  // clicks from *other* concepts of the topic.
  const QLog& log = Log();
  std::unordered_set<NodeId> top_urls;
  for (const QLog::Concept& cls : log.concepts()) {
    top_urls.insert(cls.urls[0]);
  }
  std::vector<int> concept_of_url(log.graph().num_nodes(), -1);
  for (size_t c = 0; c < log.concepts().size(); ++c) {
    for (NodeId url : log.concepts()[c].urls) {
      concept_of_url[url] = static_cast<int>(c);
    }
  }
  int cross = 0;
  for (const QLog::Click& click : log.clicks()) {
    int url_concept = concept_of_url[click.url];
    if (url_concept < 0) continue;  // portal or topic URL
    if (log.ConceptOfPhrase(click.phrase) != url_concept) {
      EXPECT_TRUE(top_urls.count(click.url))
          << "cross-concept click on a non-top URL";
      ++cross;
    }
  }
  EXPECT_GT(cross, static_cast<int>(log.concepts().size()) / 4);
}

TEST(QLogPropertyTest, TopicUrlsSharedAcrossConcepts) {
  // Task 4's distractors: topic URLs must be clicked by phrases of several
  // different concepts.
  const QLog& log = Log();
  std::unordered_set<NodeId> topic_url_set;
  for (const auto& urls : log.topic_urls()) {
    topic_url_set.insert(urls.begin(), urls.end());
  }
  std::unordered_map<NodeId, std::set<int>> concepts_per_url;
  for (const QLog::Click& click : log.clicks()) {
    if (topic_url_set.count(click.url)) {
      concepts_per_url[click.url].insert(
          log.ConceptOfPhrase(click.phrase));
    }
  }
  int shared = 0;
  for (const auto& [url, concepts] : concepts_per_url) {
    if (concepts.size() >= 2) ++shared;
  }
  EXPECT_GT(shared, static_cast<int>(concepts_per_url.size()) / 2);
}

TEST(QLogPropertyTest, EquivalentPhrasesOverlapMoreThanTopicSiblings) {
  // The Task 4 signal: phrases of the same concept share more URL
  // neighbors (Jaccard) than phrases of sibling concepts.
  const QLog& log = Log();
  const Graph& g = log.graph();
  auto neighbor_set = [&g](NodeId v) {
    std::set<NodeId> out;
    for (NodeId target : g.out_targets(v)) out.insert(target);
    return out;
  };
  auto jaccard = [](const std::set<NodeId>& a, const std::set<NodeId>& b) {
    if (a.empty() && b.empty()) return 0.0;
    int common = 0;
    for (NodeId x : a) common += b.count(x);
    return static_cast<double>(common) /
           static_cast<double>(a.size() + b.size() - common);
  };
  double same_total = 0.0, sibling_total = 0.0;
  int same_count = 0, sibling_count = 0;
  int per_topic = log.config().concepts_per_topic;
  for (size_t c = 0; c + 1 < log.concepts().size() && same_count < 300;
       ++c) {
    const auto& phrases = log.concepts()[c].phrases;
    if (phrases.size() >= 2) {
      same_total += jaccard(neighbor_set(phrases[0]),
                            neighbor_set(phrases[1]));
      ++same_count;
    }
    size_t sibling = c + 1;
    if (static_cast<int>(c) / per_topic ==
        static_cast<int>(sibling) / per_topic) {
      sibling_total += jaccard(neighbor_set(phrases[0]),
                               neighbor_set(log.concepts()[sibling].phrases[0]));
      ++sibling_count;
    }
  }
  ASSERT_GT(same_count, 50);
  ASSERT_GT(sibling_count, 50);
  EXPECT_GT(same_total / same_count, 2.0 * sibling_total / sibling_count);
}

}  // namespace
}  // namespace rtr::datasets
