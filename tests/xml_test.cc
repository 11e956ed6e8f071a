#include <gtest/gtest.h>

#include <sstream>

#include "common/random.h"
#include "xml/escape.h"
#include "xml/reader.h"
#include "xml/writer.h"

namespace silkroute::xml {
namespace {

TEST(EscapeTest, TextEscapesMarkup) {
  EXPECT_EQ(EscapeText("a<b>&c"), "a&lt;b&gt;&amp;c");
  EXPECT_EQ(EscapeText("plain"), "plain");
  EXPECT_EQ(EscapeText("\"quotes'"), "\"quotes'");  // unescaped in text
}

TEST(EscapeTest, AttributeEscapesQuotes) {
  EXPECT_EQ(EscapeAttribute("a\"b'c"), "a&quot;b&apos;c");
}

TEST(EscapeTest, UnescapeStandardEntities) {
  EXPECT_EQ(Unescape("&lt;&gt;&amp;&quot;&apos;"), "<>&\"'");
}

TEST(EscapeTest, UnescapeCharacterReferences) {
  EXPECT_EQ(Unescape("&#65;&#x42;"), "AB");
}

TEST(EscapeTest, UnescapeLeavesUnknownEntities) {
  EXPECT_EQ(Unescape("&unknown;"), "&unknown;");
  EXPECT_EQ(Unescape("a & b"), "a & b");  // bare ampersand preserved
}

TEST(EscapeTest, RoundTripProperty) {
  Random rng(3);
  for (int i = 0; i < 200; ++i) {
    std::string s;
    for (int j = 0; j < 20; ++j) {
      const char alphabet[] = "ab<>&\"' ";
      s.push_back(alphabet[rng.Uniform(0, 7)]);
    }
    EXPECT_EQ(Unescape(EscapeText(s)), s);
    EXPECT_EQ(Unescape(EscapeAttribute(s)), s);
  }
}

TEST(XmlWriterTest, SimpleDocument) {
  std::ostringstream out;
  XmlWriter w(&out);
  ASSERT_TRUE(w.StartElement("root").ok());
  ASSERT_TRUE(w.Text("hi").ok());
  ASSERT_TRUE(w.Finish().ok());
  EXPECT_EQ(out.str(),
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?><root>hi</root>");
}

TEST(XmlWriterTest, SelfClosingEmptyElement) {
  std::ostringstream out;
  XmlWriter::Options opts;
  opts.declaration = false;
  XmlWriter w(&out, opts);
  ASSERT_TRUE(w.StartElement("a").ok());
  ASSERT_TRUE(w.StartElement("b").ok());
  ASSERT_TRUE(w.EndElement().ok());
  ASSERT_TRUE(w.Finish().ok());
  EXPECT_EQ(out.str(), "<a><b/></a>");
}

TEST(XmlWriterTest, AttributesOnlyBeforeContent) {
  std::ostringstream out;
  XmlWriter::Options opts;
  opts.declaration = false;
  XmlWriter w(&out, opts);
  ASSERT_TRUE(w.StartElement("a").ok());
  ASSERT_TRUE(w.Attribute("k", "v\"w").ok());
  ASSERT_TRUE(w.Text("t").ok());
  EXPECT_FALSE(w.Attribute("late", "x").ok());
  ASSERT_TRUE(w.Finish().ok());
  EXPECT_EQ(out.str(), "<a k=\"v&quot;w\">t</a>");
}

TEST(XmlWriterTest, TextEscaped) {
  std::ostringstream out;
  XmlWriter::Options opts;
  opts.declaration = false;
  XmlWriter w(&out, opts);
  ASSERT_TRUE(w.StartElement("a").ok());
  ASSERT_TRUE(w.Text("<&>").ok());
  ASSERT_TRUE(w.Finish().ok());
  EXPECT_EQ(out.str(), "<a>&lt;&amp;&gt;</a>");
}

TEST(XmlWriterTest, ErrorsOnMisuse) {
  std::ostringstream out;
  XmlWriter w(&out);
  EXPECT_FALSE(w.Text("orphan").ok());
  EXPECT_FALSE(w.EndElement().ok());
  EXPECT_FALSE(w.StartElement("").ok());
}

TEST(XmlWriterTest, FinishClosesAllOpenElements) {
  std::ostringstream out;
  XmlWriter::Options opts;
  opts.declaration = false;
  XmlWriter w(&out, opts);
  ASSERT_TRUE(w.StartElement("a").ok());
  ASSERT_TRUE(w.StartElement("b").ok());
  ASSERT_TRUE(w.StartElement("c").ok());
  EXPECT_EQ(w.depth(), 3u);
  ASSERT_TRUE(w.Finish().ok());
  EXPECT_EQ(w.depth(), 0u);
  EXPECT_EQ(out.str(), "<a><b><c/></b></a>");
}

TEST(XmlWriterTest, PrettyPrintingIndents) {
  std::ostringstream out;
  XmlWriter::Options opts;
  opts.declaration = false;
  opts.pretty = true;
  XmlWriter w(&out, opts);
  ASSERT_TRUE(w.StartElement("a").ok());
  ASSERT_TRUE(w.StartElement("b").ok());
  ASSERT_TRUE(w.Text("x").ok());
  ASSERT_TRUE(w.Finish().ok());
  EXPECT_EQ(out.str(), "<a>\n  <b>x</b>\n</a>\n");
}

TEST(XmlWriterTest, BytesWrittenTracked) {
  std::ostringstream out;
  XmlWriter::Options opts;
  opts.declaration = false;
  XmlWriter w(&out, opts);
  ASSERT_TRUE(w.StartElement("a").ok());
  ASSERT_TRUE(w.Finish().ok());
  EXPECT_EQ(w.bytes_written(), out.str().size());
}

TEST(XmlReaderTest, ParsesNestedElements) {
  auto doc = ParseXml("<a><b>x</b><b>y</b><c/></a>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ((*doc)->name, "a");
  EXPECT_EQ((*doc)->NumChildren(), 3u);
  EXPECT_EQ((*doc)->Children("b").size(), 2u);
  EXPECT_EQ((*doc)->FirstChild("b")->text, "x");
  EXPECT_EQ((*doc)->FirstChild("missing"), nullptr);
}

TEST(XmlReaderTest, ParsesAttributes) {
  auto doc = ParseXml("<a k=\"v\" x='y&amp;z'/>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ((*doc)->attributes.at("k"), "v");
  EXPECT_EQ((*doc)->attributes.at("x"), "y&z");
}

TEST(XmlReaderTest, SkipsDeclarationDoctypeAndComments) {
  auto doc = ParseXml(
      "<?xml version=\"1.0\"?><!DOCTYPE a><!-- hi --><a><!-- in -->x</a>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ((*doc)->text, "x");
}

TEST(XmlReaderTest, UnescapesText) {
  auto doc = ParseXml("<a>&lt;tag&gt; &amp; more</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->text, "<tag> & more");
}

TEST(XmlReaderTest, ErrorsOnMalformedInput) {
  EXPECT_FALSE(ParseXml("<a><b></a></b>").ok());   // mismatched close
  EXPECT_FALSE(ParseXml("<a>").ok());              // unterminated
  EXPECT_FALSE(ParseXml("<a/><b/>").ok());         // two roots
  EXPECT_FALSE(ParseXml("<a k=v/>").ok());         // unquoted attribute
  EXPECT_FALSE(ParseXml("plain text").ok());       // no element
}

TEST(XmlReaderTest, WriterReaderRoundTrip) {
  std::ostringstream out;
  XmlWriter w(&out);
  ASSERT_TRUE(w.StartElement("root").ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(w.StartElement("item").ok());
    ASSERT_TRUE(w.Attribute("id", std::to_string(i)).ok());
    ASSERT_TRUE(w.Text("v<" + std::to_string(i) + ">&").ok());
    ASSERT_TRUE(w.EndElement().ok());
  }
  ASSERT_TRUE(w.Finish().ok());
  auto doc = ParseXml(out.str());
  ASSERT_TRUE(doc.ok()) << doc.status();
  auto items = (*doc)->Children("item");
  ASSERT_EQ(items.size(), 5u);
  EXPECT_EQ(items[3]->attributes.at("id"), "3");
  EXPECT_EQ(items[3]->text, "v<3>&");
}

/// Emits the same small document through `w`.
void EmitSampleDocument(XmlWriter* w) {
  ASSERT_TRUE(w->StartElement("root").ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(w->StartElement("item").ok());
    ASSERT_TRUE(w->Attribute("id", std::to_string(i)).ok());
    ASSERT_TRUE(w->Text("value <" + std::to_string(i) + "> & \"more\"").ok());
    ASSERT_TRUE(w->EndElement().ok());
  }
  ASSERT_TRUE(w->Finish().ok());
}

TEST(XmlWriterTest, BufferingNeverChangesEmittedBytes) {
  std::string unbuffered_bytes;
  {
    std::ostringstream out;
    XmlWriter::Options opts;
    opts.buffer_bytes = 0;  // write-through
    XmlWriter w(&out, opts);
    EmitSampleDocument(&w);
    EXPECT_EQ(w.flushes(), 0u);  // write-through never pushes chunks
    unbuffered_bytes = out.str();
  }
  for (size_t buffer : {size_t{1}, size_t{64}, size_t{1 << 20}}) {
    std::ostringstream out;
    XmlWriter::Options opts;
    opts.buffer_bytes = buffer;
    XmlWriter w(&out, opts);
    EmitSampleDocument(&w);
    EXPECT_EQ(out.str(), unbuffered_bytes) << "buffer_bytes=" << buffer;
    EXPECT_EQ(w.bytes_written(), unbuffered_bytes.size());
  }
}

TEST(XmlWriterTest, SmallBufferFlushesInChunks) {
  std::ostringstream out;
  XmlWriter::Options opts;
  opts.buffer_bytes = 64;
  XmlWriter w(&out, opts);
  EmitSampleDocument(&w);
  // The document is ~2 KiB: a 64-byte buffer must have pushed many chunks,
  // a single one would mean buffering is off by a factor of the document.
  EXPECT_GT(w.flushes(), 10u);
  EXPECT_LE(w.flushes(), w.bytes_written() / 64 + 1);
}

TEST(XmlWriterTest, LargeBufferFlushesOnce) {
  std::ostringstream out;
  XmlWriter w(&out);  // default 64 KiB buffer, document is much smaller
  EmitSampleDocument(&w);
  EXPECT_EQ(w.flushes(), 1u);  // only the final Finish-driven flush
}

TEST(XmlWriterTest, DestructorFlushesAbandonedDocument) {
  std::ostringstream out;
  {
    XmlWriter::Options opts;
    opts.declaration = false;
    XmlWriter w(&out, opts);  // buffered
    ASSERT_TRUE(w.StartElement("partial").ok());
    ASSERT_TRUE(w.Text("abandoned mid-document").ok());
    // No Finish: the error path drops the writer.
  }
  EXPECT_EQ(out.str(), "<partial>abandoned mid-document");
}

/// Writes `<r><a>1</a><b/></r>`-style siblings: `n` elements named `name`.
void EmitSiblings(XmlWriter* w, const std::string& name, int n) {
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(w->StartElement(name).ok());
    ASSERT_TRUE(w->StartElement("v").ok());
    ASSERT_TRUE(w->Text(std::to_string(i) + " & more").ok());
    ASSERT_TRUE(w->EndElement().ok());
    ASSERT_TRUE(w->EndElement().ok());
  }
}

TEST(XmlWriterTest, DetachedContinuationAppendsTheSameBytes) {
  // The tagger's range split: siblings written straight through, or the
  // later ones by a writer detached after the first and appended back.
  for (bool pretty : {false, true}) {
    for (bool wrapped : {false, true}) {
      XmlWriter::Options opts;
      opts.pretty = pretty;
      std::ostringstream direct_out;
      XmlWriter direct(&direct_out, opts);
      if (wrapped) {
        ASSERT_TRUE(direct.StartElement("doc").ok());
      }
      EmitSiblings(&direct, "a", 2);
      EmitSiblings(&direct, "b", 3);
      ASSERT_TRUE(direct.Finish().ok());

      std::ostringstream split_out;
      XmlWriter split(&split_out, opts);
      if (wrapped) {
        ASSERT_TRUE(split.StartElement("doc").ok());
      }
      XmlWriter::Continuation resume = split.Continue();
      resume.start_tag_open = false;  // resumes after the first range
      resume.wrote_any = true;
      XmlWriter detached(resume);
      EmitSiblings(&detached, "b", 3);
      EmitSiblings(&split, "a", 2);
      ASSERT_TRUE(split.Append(&detached).ok());
      ASSERT_TRUE(split.Finish().ok());
      EXPECT_EQ(split_out.str(), direct_out.str())
          << "pretty " << pretty << " wrapped " << wrapped;
      EXPECT_EQ(split.bytes_written(), direct.bytes_written());
    }
  }
}

TEST(XmlWriterTest, AppendAfterAnEmptyFirstRange) {
  // The range before the detached one wrote nothing: Append closes the
  // still-open start tag, or drops the line break a document's first token
  // never has.
  for (bool wrapped : {false, true}) {
    XmlWriter::Options opts;
    opts.pretty = true;
    opts.declaration = false;
    std::ostringstream direct_out;
    XmlWriter direct(&direct_out, opts);
    if (wrapped) {
      ASSERT_TRUE(direct.StartElement("doc").ok());
    }
    EmitSiblings(&direct, "b", 2);
    ASSERT_TRUE(direct.Finish().ok());

    std::ostringstream split_out;
    XmlWriter split(&split_out, opts);
    if (wrapped) {
      ASSERT_TRUE(split.StartElement("doc").ok());
    }
    XmlWriter::Continuation resume = split.Continue();
    resume.start_tag_open = false;
    resume.wrote_any = true;
    XmlWriter detached(resume);
    EmitSiblings(&detached, "b", 2);
    ASSERT_TRUE(split.Append(&detached).ok());
    ASSERT_TRUE(split.Finish().ok());
    EXPECT_EQ(split_out.str(), direct_out.str()) << "wrapped " << wrapped;
  }
}

TEST(XmlWriterTest, DetachedWriterMisuseIsAnError) {
  std::ostringstream out;
  XmlWriter w(&out);
  ASSERT_TRUE(w.StartElement("doc").ok());
  XmlWriter detached(w.Continue());
  // It cannot close the element it resumed inside.
  EXPECT_FALSE(detached.EndElement().ok());
  ASSERT_TRUE(detached.StartElement("open").ok());
  // Elements it left open, or a depth it did not resume at, are refused.
  EXPECT_FALSE(w.Append(&detached).ok());
  ASSERT_TRUE(detached.EndElement().ok());
  ASSERT_TRUE(w.StartElement("deeper").ok());
  EXPECT_FALSE(w.Append(&detached).ok());
  // The detached writer closed <doc>'s start tag itself; this one has too.
  ASSERT_TRUE(w.EndElement().ok());
  EXPECT_FALSE(w.Append(&detached).ok());
  ASSERT_TRUE(w.Finish().ok());
  EXPECT_EQ(out.str(),
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?><doc><deeper/></doc>");

  // Resumed right there, it appends: its first token closes the tag.
  std::ostringstream out2;
  XmlWriter w2(&out2);
  ASSERT_TRUE(w2.StartElement("doc").ok());
  XmlWriter detached2(w2.Continue());
  ASSERT_TRUE(detached2.StartElement("open").ok());
  ASSERT_TRUE(detached2.EndElement().ok());
  EXPECT_TRUE(w2.Append(&detached2).ok());
  ASSERT_TRUE(w2.Finish().ok());
  EXPECT_EQ(out2.str(),
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?><doc><open/></doc>");
}

TEST(XmlReaderTest, DeepNestingRoundTrip) {
  std::ostringstream out;
  XmlWriter::Options opts;
  opts.declaration = false;
  XmlWriter w(&out, opts);
  const int kDepth = 200;
  for (int i = 0; i < kDepth; ++i) {
    ASSERT_TRUE(w.StartElement("d").ok());
  }
  ASSERT_TRUE(w.Finish().ok());
  auto doc = ParseXml(out.str());
  ASSERT_TRUE(doc.ok());
  const XmlNode* node = doc->get();
  int depth = 1;
  while (node->NumChildren() > 0) {
    node = node->children[0].get();
    ++depth;
  }
  EXPECT_EQ(depth, kDepth);
}

}  // namespace
}  // namespace silkroute::xml
